module Controller = Mcd_cpu.Controller
module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq

type params = {
  interval_cycles : int;
  attack_threshold : float;
  attack_step_mhz : int;
  decay_step_mhz : int;
  ipc_guard : float;
}

let default_params =
  {
    interval_cycles = 10_000;
    attack_threshold = 0.04;
    attack_step_mhz = 150;
    decay_step_mhz = 50;
    ipc_guard = 0.965;
  }

let revert_cooldown = 6
let source = "on-line"

let rule params (act : Policy.actuator) =
  let prev_util = Array.make Domain.count (-1.0) in
  let cooldown = Array.make Domain.count 0 in
  let pending_check = Array.make Domain.count 0 in
  let ipc_before = Array.make Domain.count 0.0 in
  let pre_decay = Array.make Domain.count Freq.fmax_mhz in
  let idle_streak = Array.make Domain.count 0 in
  let smooth_ipc = ref (-1.0) in
  fun (s : Controller.sample) ->
    let raw_ipc =
      float_of_int s.Controller.retired
      /. float_of_int (max 1 s.Controller.elapsed_cycles)
    in
    (* exponential smoothing tames interval-to-interval IPC noise for
       the guard decision *)
    let ipc =
      if !smooth_ipc < 0.0 then raw_ipc
      else (0.4 *. raw_ipc) +. (0.6 *. !smooth_ipc)
    in
    smooth_ipc := ipc;
    List.iter
      (fun d ->
        let i = Domain.index d in
        if cooldown.(i) > 0 then cooldown.(i) <- cooldown.(i) - 1;
        (* guard: a few intervals after this domain decayed, check the
           smoothed IPC; if performance dropped, undo the decay and
           leave the domain alone for a while *)
        if pending_check.(i) > 0 then begin
          pending_check.(i) <- pending_check.(i) - 1;
          if pending_check.(i) = 0 && ipc < params.ipc_guard *. ipc_before.(i)
          then begin
            (* undo the decay exactly: restore the frequency recorded
               just before it, not cur + attack_step (150 MHz up for a
               50 MHz decay would overshoot the pre-decay point) *)
            act.set d pre_decay.(i) "revert";
            cooldown.(i) <- revert_cooldown;
            (* the plunge branch ignores [cooldown], so any idle streak
               accumulated during the pending window would plunge the
               domain by attack_step_mhz immediately after the revert —
               undoing the guard it just enforced. The revert is
               evidence the domain is not really idle: restart the
               streak from zero. *)
            idle_streak.(i) <- 0
          end
        end;
        let util = Policy.utilization s d in
        if util < 0.02 then idle_streak.(i) <- idle_streak.(i) + 1
        else idle_streak.(i) <- 0;
        if prev_util.(i) >= 0.0 then begin
          let delta = util -. prev_util.(i) in
          if util > 0.85 then begin
            (* deep backlog: a phase change caught the domain far too
               slow — jump straight back to full speed. Any decay still
               under guard observation is superseded. *)
            act.set d Freq.fmax_mhz "surge";
            pending_check.(i) <- 0
          end
          else if delta > params.attack_threshold || util > 0.45 then begin
            act.set d (act.freq d + params.attack_step_mhz) "attack";
            pending_check.(i) <- 0
          end
          else if idle_streak.(i) >= 2 then begin
            (* persistently idle: plunge without consulting the guard *)
            act.set d (act.freq d - params.attack_step_mhz) "plunge";
            pending_check.(i) <- 0
          end
          else if
            util >= 0.02 && util < 0.20 && cooldown.(i) = 0
            && pending_check.(i) = 0
            && act.freq d > Freq.fmin_mhz
          then begin
            pre_decay.(i) <- act.freq d;
            act.set d (act.freq d - params.decay_step_mhz) "decay";
            pending_check.(i) <- 3;
            ipc_before.(i) <- ipc
          end
        end;
        prev_util.(i) <- util)
      Policy.scaled_domains

(* Canonical parameter rendering: the exact strings (and order) the
   runner has always keyed on-line runs under, now owned by the policy
   itself so the key can never drift from the knobs. *)
let params_id p =
  [
    string_of_int p.interval_cycles;
    Mcd_cache.Key.float_param p.attack_threshold;
    string_of_int p.attack_step_mhz;
    string_of_int p.decay_step_mhz;
    Mcd_cache.Key.float_param p.ipc_guard;
  ]

let policy ?label ?(params = default_params) () =
  let p =
    Policy.feedback ~name:"online" ?label
      ~doc:"attack/decay occupancy controller (Semeraro et al.)"
      ~params:(params_id params) ~source
      ~interval_cycles:params.interval_cycles ~cooldown_intervals:0
      (rule params)
  in
  (* One combined-target event per reacting interval, carrying the full
     setting: the assertion layer checks these against the legal
     frequency grid. The per-domain events keep the why; this one keeps
     the what. *)
  let create ?sink () =
    let ctl = p.Policy.create ?sink () in
    match sink with
    | None -> ctl
    | Some snk ->
        let on_sample s ~now =
          let r = ctl.Controller.on_sample s ~now in
          Option.iter
            (fun setting ->
              Mcd_obs.Sink.decision snk ~t_ps:now ~source
                ~trigger:Mcd_obs.Sink.Sample ~setting ~detail:"interval target"
                ())
            r;
          r
        in
        { ctl with on_sample }
  in
  { p with create }

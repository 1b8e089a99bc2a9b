module Controller = Mcd_cpu.Controller
module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq
module Reconfig = Mcd_domains.Reconfig
module Ckey = Mcd_cache.Key

(* --- baseline ---------------------------------------------------------- *)

let baseline =
  Policy.make ~name:"baseline" ~doc:"all domains at full speed, no reactions"
    (fun ?sink:_ () -> Controller.nop)

(* --- fixed ------------------------------------------------------------- *)

(* One write at the first marker, then silence. The armed flag lives
   inside [create], so every run gets a controller that still fires —
   the reuse bug this interface exists to make impossible. *)
let fixed ?label setting =
  let params =
    List.map
      (fun d -> string_of_int (Reconfig.get setting d))
      Domain.all
  in
  Policy.make ~name:"fixed" ?label
    ~doc:"one reconfiguration write at the first marker" ~params
    (fun ?sink:_ () ->
      let armed = ref true in
      {
        Controller.name = "fixed";
        on_marker =
          (fun _ ~now:_ ->
            if !armed then begin
              armed := false;
              { Controller.no_reaction with set = Some setting }
            end
            else Controller.no_reaction);
        on_sample = (fun _ ~now:_ -> None);
        sample_interval_cycles = 0;
      })

(* --- utilization-proportional ------------------------------------------ *)

type util_prop_params = {
  interval_cycles : int;
  ewma : float;
  cooldown : int;
}

let util_prop_default = { interval_cycles = 10_000; ewma = 0.5; cooldown = 2 }

let util_prop_params_id p =
  [
    string_of_int p.interval_cycles;
    Ckey.float_param p.ewma;
    string_of_int p.cooldown;
  ]

(* The schedsim PowerAware formula, f = fmin + (fmax - fmin) * U, on the
   smoothed per-domain queue utilisation. *)
let util_prop_rule params (act : Policy.actuator) =
  let smooth = Array.make Domain.count nan in
  fun s ->
    List.iter
      (fun d ->
        let i = Domain.index d in
        let raw = Float.min 1.0 (Policy.utilization s d) in
        let u =
          if Float.is_nan smooth.(i) then raw
          else (params.ewma *. raw) +. ((1.0 -. params.ewma) *. smooth.(i))
        in
        smooth.(i) <- u;
        act.set d
          (Freq.fmin_mhz
          + int_of_float (u *. float_of_int (Freq.fmax_mhz - Freq.fmin_mhz)))
          (Printf.sprintf "U %.2f" u))
      Policy.scaled_domains

let util_prop ?label ?(params = util_prop_default) () =
  Policy.feedback ~name:"util-prop" ?label
    ~doc:"f = fmin + (fmax - fmin) * U per domain"
    ~params:(util_prop_params_id params) ~source:"util-prop"
    ~interval_cycles:params.interval_cycles
    ~cooldown_intervals:params.cooldown (util_prop_rule params)

(* --- attack/decay re-exports ------------------------------------------- *)

let online = Attack_decay.policy

(* A second parameterisation of the same policy: twitchier attacks, a
   double-size decay and a looser IPC guard. Registered both as a real
   contender and as the standing proof that one policy at two parameter
   settings keys (and therefore caches) separately. *)
let eager_params =
  {
    Attack_decay.default_params with
    Attack_decay.attack_threshold = 0.02;
    decay_step_mhz = 100;
    ipc_guard = 0.93;
  }

let online_eager () = Attack_decay.policy ~label:"online-eager" ~params:eager_params ()

(* --- registry ---------------------------------------------------------- *)

let mid_grid =
  Reconfig.make ~front_end:Freq.fmax_mhz ~integer:750 ~floating:750 ~memory:750

let all () =
  [
    baseline;
    online ();
    online_eager ();
    Pid.policy ();
    Cache_aware.policy ();
    util_prop ();
    fixed ~label:"fixed-750" mid_grid;
  ]

let contenders () =
  List.filter (fun p -> p.Policy.name <> "baseline") (all ())

(* The attack/decay family: the purely reactive controllers the
   generative campaign races profile-driven control against. *)
let adversaries () = [ online (); online_eager () ]

let by_name name =
  List.find_opt (fun p -> p.Policy.label = name) (all ())

let names () = List.map (fun p -> p.Policy.label) (all ())

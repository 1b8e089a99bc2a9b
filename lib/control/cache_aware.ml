module Controller = Mcd_cpu.Controller
module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq
module Ckey = Mcd_cache.Key

type params = {
  interval_cycles : int;
  l2_mpki_hi : float;
  l2_mpki_lo : float;
  step_mhz : int;
  busy_util : float;
  cooldown : int;
}

let default_params =
  {
    interval_cycles = 10_000;
    l2_mpki_hi = 6.0;
    l2_mpki_lo = 1.5;
    step_mhz = 100;
    busy_util = 0.70;
    cooldown = 2;
  }

let params_id p =
  [
    string_of_int p.interval_cycles;
    Ckey.float_param p.l2_mpki_hi;
    Ckey.float_param p.l2_mpki_lo;
    string_of_int p.step_mhz;
    Ckey.float_param p.busy_util;
    string_of_int p.cooldown;
  ]

let compute_domains = [ Domain.Integer; Domain.Floating ]

let rule params (act : Policy.actuator) =
  let smooth_mpki = ref nan in
  fun (s : Controller.sample) ->
    let kinsts = float_of_int (max 1 s.Controller.retired) /. 1000.0 in
    let raw_mpki = float_of_int s.Controller.l2_misses /. kinsts in
    (* smooth the miss rate: one interval of cold misses after a phase
       change should not read as a memory-bound phase *)
    let mpki =
      if Float.is_nan !smooth_mpki then raw_mpki
      else (0.5 *. raw_mpki) +. (0.5 *. !smooth_mpki)
    in
    smooth_mpki := mpki;
    (* the memory domain serves the miss traffic: scale it with its own
       backlog, but never below half speed while L1D misses are
       flowing — a slow L2 lengthens every miss's latency *)
    let mem_util = Policy.utilization s Domain.Memory in
    let mem_floor =
      if s.Controller.l1d_misses > 0 then (Freq.fmin_mhz + Freq.fmax_mhz) / 2
      else Freq.fmin_mhz
    in
    act.set Domain.Memory
      (max mem_floor
         (Freq.fmin_mhz
         + int_of_float
             (Float.min 1.0 mem_util
             *. float_of_int (Freq.fmax_mhz - Freq.fmin_mhz))))
      "mem-util";
    (* compute domains: when the window is memory-bound (high L2 MPKI)
       they mostly wait on fills, so cheap cycles are free savings —
       step down. When it is compute-bound, step back up toward full
       speed. A genuinely backlogged domain overrides the miss signal:
       starving it would stretch the critical path. *)
    List.iter
      (fun d ->
        let util = Policy.utilization s d in
        if util > params.busy_util then act.set d Freq.fmax_mhz "busy"
        else if mpki >= params.l2_mpki_hi then
          act.set d (act.freq d - params.step_mhz) "mem-bound"
        else if mpki <= params.l2_mpki_lo then
          act.set d (act.freq d + params.step_mhz) "compute-bound")
      compute_domains

let policy ?label ?(params = default_params) () =
  Policy.feedback ~name:"cache-aware" ?label
    ~doc:"L2-miss-driven scaling: starved compute domains slow down"
    ~params:(params_id params) ~source:"cache-aware"
    ~interval_cycles:params.interval_cycles
    ~cooldown_intervals:params.cooldown (rule params)

module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq
module Ckey = Mcd_cache.Key

type params = {
  interval_cycles : int;
  setpoint : float;
  kp : float;
  ki : float;
  kd : float;
  integral_clamp : float;
  cooldown : int;
}

(* Gains are in frequency-range units: an error of 1.0 (a full queue
   against an empty setpoint) with kp = 1.0 commands the whole
   fmin..fmax span in one interval. The defaults are deliberately
   mild — the plant (queue occupancy vs frequency) has delay from the
   issue queues themselves, so an aggressive loop oscillates. *)
let default_params =
  {
    interval_cycles = 10_000;
    setpoint = 0.30;
    kp = 1.6;
    ki = 0.45;
    kd = 0.35;
    integral_clamp = 1.2;
    cooldown = 2;
  }

let params_id p =
  [
    string_of_int p.interval_cycles;
    Ckey.float_param p.setpoint;
    Ckey.float_param p.kp;
    Ckey.float_param p.ki;
    Ckey.float_param p.kd;
    Ckey.float_param p.integral_clamp;
    string_of_int p.cooldown;
  ]

let span = float_of_int (Freq.fmax_mhz - Freq.fmin_mhz)

let rule params (act : Policy.actuator) =
  (* the continuous command each PID loop integrates on; the current
     frequency is its snap to the legal frequency grid *)
  let cmd = Array.make Domain.count (float_of_int Freq.fmax_mhz) in
  let integral = Array.make Domain.count 0.0 in
  let prev_err = Array.make Domain.count nan in
  fun s ->
    List.iter
      (fun d ->
        let i = Domain.index d in
        (* positive error = more backlog than the setpoint tolerates =
           the domain is too slow *)
        let err = min 1.5 (Policy.utilization s d) -. params.setpoint in
        integral.(i) <-
          Float.max (-.params.integral_clamp)
            (Float.min params.integral_clamp (integral.(i) +. err));
        let deriv =
          if Float.is_nan prev_err.(i) then 0.0 else err -. prev_err.(i)
        in
        prev_err.(i) <- err;
        let delta =
          ((params.kp *. err) +. (params.ki *. integral.(i))
          +. (params.kd *. deriv))
          *. span
        in
        cmd.(i) <-
          Float.max
            (float_of_int Freq.fmin_mhz)
            (Float.min (float_of_int Freq.fmax_mhz) (cmd.(i) +. delta));
        act.set d
          (int_of_float (Float.round cmd.(i)))
          (Printf.sprintf "err %+.3f" err))
      Policy.scaled_domains

let policy ?label ?(params = default_params) () =
  Policy.feedback ~name:"pid" ?label
    ~doc:"per-domain PID loop on a utilization setpoint"
    ~params:(params_id params) ~source:"pid"
    ~interval_cycles:params.interval_cycles
    ~cooldown_intervals:params.cooldown (rule params)

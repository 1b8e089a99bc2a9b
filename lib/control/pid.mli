(** PID/feedback frequency controller.

    Each scaled domain runs an independent PID loop on the error
    between its observed queue utilisation and a setpoint, in the
    spirit of the CMP control-loop literature: proportional and
    derivative terms chase phase changes, the (clamped) integral term
    removes steady-state error, and the summed correction moves a
    continuous per-domain frequency command that is snapped to the
    legal grid. Writes are rate-limited by a per-domain cooldown
    ({!Policy.feedback}) so the loop cannot thrash the reconfiguration
    register. *)

type params = {
  interval_cycles : int;  (** sampling interval, front-end cycles *)
  setpoint : float;  (** target utilisation (backlog / capacity) *)
  kp : float;  (** proportional gain, frequency-range units *)
  ki : float;  (** integral gain *)
  kd : float;  (** derivative gain *)
  integral_clamp : float;  (** anti-windup bound on the integral term *)
  cooldown : int;  (** min sample intervals between writes per domain *)
}

val default_params : params

val params_id : params -> string list

val policy : ?label:string -> ?params:params -> unit -> Policy.t
(** Named ["pid"]; feedback, so always simulated exactly. *)

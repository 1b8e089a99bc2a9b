(** Cache-aware DVFS policy (THEAS-spirited).

    The memory hierarchy is the signal: the per-interval L2 miss rate
    (misses per kilo-instruction, smoothed) classifies the current
    window as memory-bound or compute-bound. In memory-bound windows
    the integer/floating domains mostly wait on fills, so they step
    down — cycles they would have idled through become energy savings;
    in compute-bound windows they step back toward full speed. The
    memory domain itself scales with its own backlog but is floored at
    mid-grid while L1D misses are in flight, because a slow L2
    lengthens every miss. A per-domain queue-utilisation override keeps
    genuinely backlogged domains at full speed regardless of the miss
    signal. *)

type params = {
  interval_cycles : int;  (** sampling interval, front-end cycles *)
  l2_mpki_hi : float;  (** smoothed L2 MPKI above which the window is
                           memory-bound *)
  l2_mpki_lo : float;  (** below which it is compute-bound *)
  step_mhz : int;  (** frequency step per classified interval *)
  busy_util : float;  (** utilisation above which a compute domain is
                          pinned to full speed *)
  cooldown : int;  (** min sample intervals between writes per domain *)
}

val default_params : params

val params_id : params -> string list

val policy : ?label:string -> ?params:params -> unit -> Policy.t
(** Named ["cache-aware"]; feedback, so always simulated exactly. *)

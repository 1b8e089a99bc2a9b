(** Dependence DAG over primitive events (input to the shaker).

    Built from one recorded segment of a long-running node. Vertices are
    primitive events; edges are the dependences observed by the
    simulator:

    - the intra-instruction pipeline chain
      (fetch -> dispatch -> execute/mem -> retire);
    - data dependences (producer execute/mem -> consumer execute/mem);
    - control dependences (mispredicted branch -> first fetch after the
      recovery);
    - fetch serialization (fetch i -> fetch i+1), in-order retirement
      (retire i -> retire i+1), and reorder-buffer occupancy pressure
      (retire i -> fetch i + rob_size).

    Without the structural edges the shaker would see phantom slack —
    fetch gaps caused by back-pressure look like idle time that could
    absorb frequency reduction, when in fact they shift one-for-one with
    the events that caused them.

    Event times come from the full-speed profiling run, so edge slack —
    the gap between a producer's end and a consumer's start — reflects
    real scheduling slack in the machine.

    The layout is flat: event ids index parallel arrays (in the input's
    (seq, stage) order), and the adjacency is in compressed sparse row
    form — the successors of event [i] are
    [succ.(succ_off.(i)) .. succ.(succ_off.(i + 1) - 1)], in the order
    the dependences were discovered, and likewise for predecessors. *)

type t = {
  start : float array;  (** ps, from the profiling run *)
  duration : float array;  (** ps, at full frequency *)
  domain : int array;  (** {!Mcd_domains.Domain.index} of each event *)
  succ_off : int array;  (** length [size + 1] *)
  succ : int array;
  pred_off : int array;  (** length [size + 1] *)
  pred : int array;
  order : int array;
      (** event ids sorted by (start, id): the order in which the
          kernels sweep the events *)
  t_min : float;  (** earliest event start (segment source bound) *)
  t_max : float;  (** latest event end (segment sink bound) *)
}

val build : ?rob_size:int -> Mcd_cpu.Probe.event array -> t
(** The input must be sorted by (seq, stage) as produced by
    {!Mcd_trace.Collector.segments}. Dependences on instructions outside
    the segment are dropped. [rob_size] defaults to the Table-1 value
    (80). *)

val size : t -> int
val edge_count : t -> int

val slack : t -> int -> float
(** Outgoing slack of an event: minimum over successors of
    [succ.start - (ev.start + ev.duration)], or distance to [t_max] for
    sinks. Non-negative by construction of the schedule (clamped at 0
    against rounding). *)

val validate : t -> unit
(** Check DAG invariants (edges point forward in time up to a small
    tolerance, consistent adjacency, [order] sorted). Raises
    [Invalid_argument] on violation; used by tests. *)

val path_signatures : t -> Path_model.segment
(** Signatures of the binding paths under a standard probe set, packaged
    with the full-speed critical-path length. The probes stretch every
    event in domain [d] by a factor: 1 everywhere, 4 everywhere, then 4
    for each domain of {!Mcd_domains.Domain.all} alone (1 elsewhere) —
    six signatures, in that order. A signature is the composition of
    the longest path under its probe: entry [Domain.index d] is the
    total {e unstretched} scaling time of path events in domain [d],
    the last entry the
    frequency-independent remainder. All six probes share one traversal
    of the DAG. Used to build the compact path model that validates a
    candidate setting's slowdown (the paper's "delay calculation"). *)

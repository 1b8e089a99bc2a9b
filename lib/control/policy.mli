(** First-class DVFS policies.

    A policy value is a {e description}: a stable name, a canonical
    parameter rendering, and a [create] function that builds a fresh
    {!Mcd_cpu.Controller.t} for one run. The two structural guarantees
    every consumer leans on:

    - {b fresh state per run} — controllers close over mutable state
      (armed flags, per-domain EWMA/PID accumulators), so a controller
      value is single-use. A policy value is reusable: each
      [Pipeline.run] gets its own controller from [create], and reusing
      one policy across runs can never leak state between them.
    - {b canonical cache identity} — [name] and [params] render into the
      [("policy", "name:p1:…:pn")] part of every {!Mcd_cache.Key}
      ({!key_fragment}), so two policies that could produce different
      results can never alias each other's cached objects, and the same
      policy at different parameters keys separately too.

    Policies whose controller is a cycle-driven feedback loop (it reads
    occupancy/IPC/miss samples) must be simulated exactly: phase
    sampling skips instances the loop would have reacted to, so
    [feedback = true] policies opt out of sampled mode and keep
    mode-independent cache keys (exactly as the on-line attack/decay
    controller always has). *)

type t = {
  name : string;  (** cache-key identity; shared by parameter variants *)
  label : string;
      (** unique registry/display id; equals [name] unless several
          parameterisations of one policy are registered *)
  doc : string;  (** one-line description for tables and [--help] *)
  params : string list;
      (** canonical ordered rendering of every knob that can change the
          run — the [params] of {!Mcd_cache.Key.policy_fragment} *)
  feedback : bool;
      (** cycle-driven feedback loop: simulate exactly, never sampled *)
  cooldown_intervals : int;
      (** minimum number of sample intervals between two frequency
          changes of the same domain (0 = unconstrained); for a
          {!feedback} policy, the value its controller enforces *)
  create : ?sink:Mcd_obs.Sink.t -> unit -> Mcd_cpu.Controller.t;
      (** build a fresh single-use controller (fresh mutable state) *)
}

val make :
  name:string ->
  ?label:string ->
  ?doc:string ->
  ?params:string list ->
  (?sink:Mcd_obs.Sink.t -> unit -> Mcd_cpu.Controller.t) ->
  t
(** A feed-forward policy ([feedback = false], [cooldown_intervals = 0]):
    it follows the global simulation mode. [params] defaults to [[]],
    [label] to [name]. Sample-driven loops use {!feedback}. *)

val key_fragment : t -> (string * string) list
(** {!Mcd_cache.Key.policy_fragment} over [name]/[params] — the one
    rendering the runner's cache keys and any request-coalescing
    identity must share. *)

val scaled_domains : Mcd_domains.Domain.t list
(** The three back-end domains every zoo policy scales; the front end
    is never scaled (as in the paper and the original on-line
    proposal). *)

val queue_capacity : Mcd_domains.Domain.t -> float
(** Capacity used to normalise the domain-owned backlog into a
    utilisation in [0, 1] (issue-queue / LSQ / fetch-buffer sizes). *)

val utilization : Mcd_cpu.Controller.sample -> Mcd_domains.Domain.t -> float
(** [avg_occupancy / queue_capacity] for one domain. *)

(** {1 Sample-driven feedback policies} *)

type actuator = {
  freq : Mcd_domains.Domain.t -> int;
      (** the domain's current frequency; every domain starts at fmax *)
  set : Mcd_domains.Domain.t -> int -> string -> unit;
      (** [set d f why] moves [d] to [Freq.clamp f]. It does nothing when
          that is [d]'s current frequency or [d]'s cooldown is still
          running; otherwise it records a [Decision] event with detail
          ["<why> <domain> <old>-><new> MHz"] and starts the cooldown. *)
}

val feedback :
  name:string ->
  ?label:string ->
  doc:string ->
  params:string list ->
  source:string ->
  interval_cycles:int ->
  cooldown_intervals:int ->
  (actuator -> Mcd_cpu.Controller.sample -> unit) ->
  t
(** A sample-driven feedback policy ([feedback = true]) that keeps only
    its decision rule. [rule act] is applied once per [create]: it
    allocates the run's rule state and returns the per-sample decision,
    which reads and moves frequencies through [act]. The controller,
    named [source] (also the source of its decision events), samples
    every [interval_cycles] front-end cycles and never reacts to
    markers. Each sample first advances every domain's cooldown timer by
    one interval, then runs the decision; if any domain moved, the new
    setting (front end at fmax) is written. The timers enforce
    [cooldown_intervals] — the same value the policy declares. *)

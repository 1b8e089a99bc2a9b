(** Multicore fan-out for embarrassingly parallel experiment sweeps.

    [map ~jobs f xs] evaluates [f] over [xs] on up to [jobs] OCaml 5
    domains (including the calling one) and returns the results in input
    order, so output is byte-identical to the sequential [List.map] as
    long as [f] is deterministic per element. [jobs <= 1] is exactly
    [List.map] — no domains are spawned, no synchronization happens —
    which keeps single-threaded callers (tests, the CLI default) on the
    untouched sequential path.

    Work is distributed dynamically through a shared atomic counter, so
    uneven per-item cost (e.g. mcf's long memory stalls vs adpcm) load
    balances automatically. Domains are spawned per call and joined
    before returning; if [f] raises, every worker is still drained and
    joined, then the exception of the earliest failing item re-raises in
    the caller, carrying the backtrace captured at the original raise
    site inside the worker domain.

    Callers are responsible for [f] being domain-safe: no unguarded
    writes to shared mutable state ({!Mcd_experiments.Runner}'s memo
    holds a mutex for each find and add). *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — a sensible [--jobs] default. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

val iter : ?jobs:int -> ('a -> unit) -> 'a list -> unit

(** Two-level content-addressed result store.

    The first level is whatever in-memory memo table the caller already
    keeps (e.g. {!Mcd_experiments.Runner}'s process-wide memo); this
    module is the second, persistent level: objects live under
    [dir/objects/ab/cdef…] (first two hex digits of the key digest as a
    shard), each object embedding its full canonical key, payload byte
    count, and an [end] trailer.

    Durability rules:
    - {e writes are atomic}: content goes to a unique temp file in the
      target directory, then [Sys.rename]s into place
      ({!Mcd_util.Fs.write_atomic}), so concurrent writers under
      multi-domain or multi-process fan-out can never produce a torn
      object (same-key racers write identical bytes —
      results are deterministic functions of the key — so last rename
      winning is harmless);
    - {e reads are corruption-tolerant}: any malformation — truncation,
      damage, digest collision, unreadable file — logs a typed
      {!Mcd_robust.Error.Cache_corrupt} diagnostic to stderr, counts as
      a miss, and falls back to recompute (which heals the object by
      overwriting it). A cache can make a run faster, never wronger. *)

type t

val create : dir:string -> t
(** Open (creating directories as needed) a store rooted at [dir]. A
    directory that cannot be created logs an I/O diagnostic; the store
    then degrades to recompute-only, like an unwritable one. *)

val dir : t -> string

val metrics : t -> Mcd_obs.Metrics.t
(** The store's counter registry ([cache.hits], [cache.misses],
    [cache.corrupt], [cache.stores], [cache.bytes_read],
    [cache.bytes_written], [cache.gc_removed], [cache.gc_freed_bytes])
    for export alongside other observability metrics. *)

val find : t -> Key.t -> string option
(** The raw payload stored under the key, if present and intact. *)

val add : t -> Key.t -> string -> unit
(** Store a payload under a key (atomic tmp+rename; overwrites). An
    unwritable cache directory logs an I/O diagnostic and is otherwise
    ignored — computation results are never lost to cache failures. *)

val cached :
  t ->
  key:Key.t ->
  encode:('a -> string) ->
  decode:(string -> ('a, string) result) ->
  (unit -> 'a) ->
  'a
(** [cached t ~key ~encode ~decode compute] is the read-through /
    write-through composition: returns the decoded stored value on a
    clean hit; on a miss {e or any corruption} (container or payload)
    runs [compute], stores its encoding, and returns it. *)

type stats = {
  hits : int;
  misses : int;
  corrupt : int;
  stores : int;
  bytes_read : int;
  bytes_written : int;
  gc_removed : int;
  gc_freed_bytes : int;
}

val stats : t -> stats
(** This process's session counters (not persisted). *)

val disk_usage : t -> int * int
(** [(objects, bytes)] currently on disk. *)

val gc : ?max_bytes:int -> t -> int * int
(** Delete oldest-modified objects until at most [max_bytes] (default 0,
    i.e. clear everything) remain — the byte total comes from
    {!disk_usage}; returns [(removed, freed_bytes)], which is also
    accumulated into the [cache.gc_removed] / [cache.gc_freed_bytes]
    session counters. *)

(** {2 Process-wide default store}

    The CLI and bench resolve one store per process: an explicit
    [--cache-dir] flag wins, else the [MCD_DVFS_CACHE] environment
    variable, else caching is off. Set it before any parallel fan-out;
    worker domains only read the reference. *)

val set_default : t option -> unit

val default : unit -> t option
(** Resolves [MCD_DVFS_CACHE] on first call if {!set_default} was never
    invoked. *)

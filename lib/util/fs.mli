(** File-system plumbing shared by the result store, the serve journal,
    the observability exporter, the fault injector and the tools.

    Failures surface as [Sys_error] (or, for {!rm_rf}, [Unix_error])
    except in {!write_atomic}, whose callers degrade instead of failing
    and so get a [result]. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents, mode 0o755. Idempotent,
    and safe against a concurrent creator of the same directory. *)

val rm_rf : string -> unit
(** Remove a file or a directory tree. Based on [lstat]: a symbolic
    link is unlinked, never followed, so a linked-to tree survives. A
    missing path is a no-op. *)

val read_file : string -> string
(** The whole file, read in binary mode. *)

val write_atomic : string -> string -> (unit, string) result
(** [write_atomic path contents] writes [contents] to a
    [<path>.tmp.<pid>.<n>] sibling, creating [path]'s parent directory
    if needed, then renames it over [path]: a reader sees the old bytes
    or the new ones, never a prefix. On failure the tmp file is removed
    and the [Sys_error] message is returned. Safe across domains and
    processes. *)

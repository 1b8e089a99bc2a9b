(** Content-addressed cache keys.

    A key is a single-line canonical string naming {e every} model input
    that can change a cached result — program structure, workload input,
    processor configuration, frequency grid, policy identity — plus a
    cache-format and model version, digested to a 32-hex-character
    address. Changing any input (or bumping a version constant after a
    behaviour-relevant code change) changes the digest, so stale entries
    are never served: the store self-invalidates by construction. *)

val format_version : int
(** Version of the on-disk object container format. *)

val model_version : int
(** Version of the {e simulation model} baked into cached results. Bump
    whenever pipeline/power/controller semantics change in a way the
    structural key parts cannot see. *)

type t

val make : kind:string -> parts:(string * string) list -> t
(** Build a key of the given kind (e.g. ["run"], ["plan"],
    ["oracle"]) from named parts. Part order is significant — callers
    must emit parts in a fixed order. Names and values containing
    space, ['%'], or newline are percent-encoded in the canonical
    rendering. *)

val encode_value : string -> string
(** Percent-encode space, ['%'] and newline — the escaping of canonical
    key lines, shared by the serve protocol's [key=value] tokens. *)

val kind : t -> string

val canonical : t -> string
(** The full canonical key line (embedded in object headers so a digest
    collision is detected as corruption rather than served). *)

val digest : t -> string
(** 32 lowercase hex characters (MD5 of {!canonical}). *)

(** {2 Standard fragments}

    Builders for the key parts shared by every cached result kind. Each
    returns an association-list fragment to splice into [parts]. *)

val program_fragment :
  Mcd_isa.Program.t -> input:Mcd_isa.Program.input -> (string * string) list
(** Digest of {!Mcd_isa.Program.canonical} evaluated at [input]. *)

val input_fragment : Mcd_isa.Program.input -> (string * string) list
(** name : scale : divergence : seed. *)

val config_fragment : Mcd_cpu.Config.t -> (string * string) list
(** Every [Config.t] field, including clocking mode, jitter, and seed. *)

val freq_fragment : unit -> (string * string) list
(** The frequency/voltage grid (range, step, step count, voltage
    range). *)

val float_param : float -> string
(** Canonical lossless rendering of a float key parameter ([%h]), the
    one rendering every key fragment and wire request must share —
    ["7."] and ["7.0"] digesting differently is how identical requests
    stop coalescing. *)

val policy_fragment : name:string -> params:string list -> (string * string) list
(** [[("policy", "name:p1:…:pn")]] — the canonical identity of the
    reconfiguration policy driving a run, shared by the runner's cache
    keys and the experiment service's request-coalescing keys. *)

(** Ablation benches for the design choices DESIGN.md calls out. *)

val sync_penalty : ?workloads:Mcd_workloads.Workload.t list -> unit -> string
(** The inherent MCD cost: baseline MCD vs a globally synchronous core
    at full speed (the ~1.3% performance / ~0.8% energy penalties of
    Section 4.1). *)

val shaker_passes :
  ?workload:Mcd_workloads.Workload.t -> ?passes:int list -> unit -> string
(** Energy/performance of the profile-based plan as the shaker's pass
    budget varies — one pass distributes slack greedily, the full budget
    approaches the slack-uniform fixed point. *)

val long_threshold :
  ?workload:Mcd_workloads.Workload.t -> ?thresholds:int list -> unit -> string
(** Sensitivity to the long-running node threshold (the paper's 10k
    instructions): node counts, reconfiguration rate, and results. *)

val narrow_config : Mcd_cpu.Config.t
(** The 2-wide core with half-size queues and ROB {!narrow_core} runs
    on. *)

val narrow_core : ?workloads:Mcd_workloads.Workload.t list -> unit -> string
(** Does profile-based DVFS survive a different microarchitecture? Rerun
    training and production on a 2-wide core with half-size queues and
    ROB. Slack shifts (a narrower machine exposes less ILP slack and more
    fetch pressure), so the chosen frequencies differ — but the method's
    contract (savings at bounded slowdown) should continue to hold. *)

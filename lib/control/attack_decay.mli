(** The hardware on-line attack/decay controller (Semeraro et al.,
    MICRO 2002) — the paper's "on-line" comparison bars.

    Every interval (10,000 front-end cycles by default) the controller
    examines each back-end domain's average issue-queue occupancy. A
    significant change in occupancy since the previous interval triggers
    an *attack*: frequency moves sharply in the same direction (rising
    occupancy means the domain is falling behind — speed it up; falling
    occupancy means slack — slow it down). Otherwise the frequency
    *decays* slowly downward to squeeze out residual slack. The
    front-end domain is not scaled (as in the original proposal).

    The algorithm exploits the tendency of the future to resemble the
    recent past; its characteristic failure, reproduced here, is
    instability on phase changes — the attack lags each transition. *)

type params = {
  interval_cycles : int;  (** sampling interval, front-end cycles *)
  attack_threshold : float;
      (** relative occupancy change that triggers an attack *)
  attack_step_mhz : int;  (** frequency change on attack *)
  decay_step_mhz : int;  (** downward drift per stable interval *)
  ipc_guard : float;
      (** tolerated relative IPC drop after a decay before the decay is
          reverted; lower values are more aggressive (more energy, more
          slowdown) — the knob swept in Figures 10/11 *)
}

val default_params : params

val params_id : params -> string list
(** Canonical ordered rendering of every knob — the [params] of this
    policy's cache-key fragment. *)

val policy : ?label:string -> ?params:params -> unit -> Policy.t
(** The controller as a first-class policy named ["online"] (key
    identity {!params_id}; [label] defaults to ["online"]); its
    controller is named ["on-line"]. Feedback: always simulated exactly.
    With a [sink], every frequency move is recorded as a [Decision]
    event labelled with its cause (attack / decay / revert / plunge /
    surge), and each reacting interval adds one ["interval target"]
    event carrying the full setting. *)

module Rng = Mcd_util.Rng
module Spec = Mcd_gen.Spec
module Assert = Mcd_gen.Assert
module Suite = Mcd_workloads.Suite
module Policy = Mcd_control.Policy
module Policies = Mcd_control.Policies
module Context = Mcd_profiling.Context
module Metrics = Mcd_power.Metrics
module Domain = Mcd_domains.Domain
module Sink = Mcd_obs.Sink
module Json = Mcd_obs.Json

type params = {
  count : int;
  seed : int;
  slowdown_pct : float;
  epsilon_pct : float;
  margin_pct : float;
  minimize : int;
  observe : bool;
  train_insts : int;
  ref_insts : int;
}

let default_params =
  {
    count = 100;
    seed = 7;
    slowdown_pct = Runner.default_slowdown_pct;
    epsilon_pct = 1.0;
    margin_pct = 0.5;
    minimize = 8;
    observe = true;
    train_insts = 12_000;
    ref_insts = 30_000;
  }

type kind =
  | Assertion of Assert.violation
  | Profile_loses of {
      rival : string;
      profile_ed_pct : float;
      rival_ed_pct : float;
    }

let kind_key = function
  | Assertion v -> "assert:" ^ v.Assert.check
  | Profile_loses { rival; _ } -> "loses:" ^ rival

let describe_kind = function
  | Assertion v -> Printf.sprintf "%s: %s" v.Assert.check v.Assert.detail
  | Profile_loses { rival; profile_ed_pct; rival_ed_pct } ->
      Printf.sprintf
        "profile loses to %s on ED improvement (%.2f%% vs %.2f%%)" rival
        profile_ed_pct rival_ed_pct

type hit = { spec : Spec.t; kind : kind }

type finding = {
  hit : hit;
  minimized : Spec.t;
  shrink_steps : int;
  minimized_kind : kind;
}

type report = {
  params : params;
  total : int;
  hits : hit list;
  findings : finding list;
  skipped_minimize : int;
}

(* ------------------------------------------------------------------ *)
(* Evaluation: one spec through the full check battery. *)

let evaluate ~params spec =
  let w = Spec.workload spec in
  Suite.register w;
  let findings = ref [] in
  let add vs = List.iter (fun v -> findings := Assertion v :: !findings) vs in
  let baseline = Runner.baseline w in
  add (Assert.run_sane ~label:"baseline" baseline);
  let pr =
    Runner.profile_run ~slowdown_pct:params.slowdown_pct w ~context:Context.lf
      ~train:`Train
  in
  add (Assert.run_sane ~label:"profile" pr.Runner.run);
  add
    (Assert.degradation_bounded ~label:"profile"
       ~slowdown_pct:params.slowdown_pct ~epsilon_pct:params.epsilon_pct
       ~baseline pr.Runner.run);
  let cp = Runner.compare_runs ~baseline pr.Runner.run in
  List.iter
    (fun policy ->
      let rrun = Runner.policy_run policy w in
      add (Assert.run_sane ~label:policy.Policy.label rrun);
      let cr = Runner.compare_runs ~baseline rrun in
      if cr.Runner.ed_improvement_pct > cp.Runner.ed_improvement_pct +. params.margin_pct
      then
        findings :=
          Profile_loses
            {
              rival = policy.Policy.label;
              profile_ed_pct = cp.Runner.ed_improvement_pct;
              rival_ed_pct = cr.Runner.ed_improvement_pct;
            }
          :: !findings)
    (Policies.adversaries ());
  if params.observe then begin
    (* Observed profile run at the default slowdown (plan_for's
       operating point): interval series feed the plan-floor check. *)
    let sink = Sink.create ~domains:Domain.count () in
    let orun =
      Runner.run ~sink
        (Runner.Profile
           {
             context = Context.lf;
             train = `Train;
             slowdown_pct = Runner.default_slowdown_pct;
           })
        w
    in
    add (Assert.run_sane ~label:"profile-observed" orun);
    let plan = Runner.plan_for w ~context:Context.lf ~train:`Train in
    let floor = Assert.plan_floor_mhz plan in
    let ipc_threshold = 0.5 *. Metrics.ipc baseline in
    add (Assert.floor_respected ~label:"profile-observed" ~floor_mhz:floor ~ipc_threshold sink);
    (* Observed attack/decay run: its combined-target decision events
       feed the frequency-grid check. *)
    let sink2 = Sink.create ~domains:Domain.count () in
    let _ = Runner.run ~sink:sink2 (Runner.Policy (Policies.online ())) w in
    add (Assert.decisions_on_grid ~label:"online-observed" sink2)
  end;
  List.rev !findings

let replay ?(params = default_params) spec = evaluate ~params spec

(* ------------------------------------------------------------------ *)
(* Minimization: qcheck shrinking toward the smallest spec whose
   evaluation still contains the find's class. *)

let reproduces ~params ~key spec =
  List.exists (fun k -> kind_key k = key) (evaluate ~params spec)

let minimize ~params h =
  let key = kind_key h.kind in
  let arb =
    QCheck.make ~print:Spec.canonical
      ~shrink:(fun s -> QCheck.Iter.of_list (Spec.shrink s))
      (QCheck.Gen.return h.spec)
  in
  let cell =
    QCheck.Test.make_cell ~count:1 ~name:("minimize " ^ key) arb (fun s ->
        not (reproduces ~params ~key s))
  in
  let res =
    QCheck.Test.check_cell ~rand:(Random.State.make [| params.seed |]) cell
  in
  let minimized, shrink_steps =
    match QCheck.TestResult.get_state res with
    | QCheck.TestResult.Failed { instances = ce :: _ } ->
        (ce.QCheck.TestResult.instance, ce.QCheck.TestResult.shrink_steps)
    | _ ->
        (* evaluation is deterministic, so the original must fail the
           property; this branch is unreachable but harmless *)
        (h.spec, 0)
  in
  let minimized_kind =
    match
      List.find_opt (fun k -> kind_key k = key) (evaluate ~params minimized)
    with
    | Some k -> k
    | None -> h.kind
  in
  { hit = h; minimized; shrink_steps; minimized_kind }

(* ------------------------------------------------------------------ *)

let drawn_specs params =
  let master = Rng.create params.seed in
  (* per-spec seeds are split (not drawn sequentially) so they are a
     pure function of (campaign seed, index) — independent of any
     evaluation order *)
  List.init params.count (fun i ->
      let r = Rng.split master ~label:(Printf.sprintf "spec-%d" i) in
      let seed = Int64.to_int (Rng.int64 r) land max_int in
      Spec.draw ~train_insts:params.train_insts ~ref_insts:params.ref_insts
        ~seed ())

let run ?(params = default_params) () =
  let specs = drawn_specs params in
  let results =
    Runner.par_map (fun spec -> (spec, evaluate ~params spec)) specs
  in
  let hits =
    List.concat_map
      (fun (spec, ks) -> List.map (fun kind -> { spec; kind }) ks)
      results
  in
  (* first hit of each distinct class, sweep order *)
  let seen = Hashtbl.create 16 in
  let classes =
    List.filter
      (fun h ->
        let key = kind_key h.kind in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      hits
  in
  let to_minimize, skipped =
    let rec take n = function
      | [] -> ([], [])
      | x :: tl when n > 0 ->
          let keep, drop = take (n - 1) tl in
          (x :: keep, drop)
      | rest -> ([], rest)
    in
    take params.minimize classes
  in
  let findings = List.map (minimize ~params) to_minimize in
  {
    params;
    total = List.length specs;
    hits;
    findings;
    skipped_minimize = List.length skipped;
  }

(* ------------------------------------------------------------------ *)

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "campaign: %d specs (seed %d), %d hit(s) in %d class(es)%s\n" r.total
       r.params.seed (List.length r.hits)
       (List.length r.findings + r.skipped_minimize)
       (if r.skipped_minimize > 0 then
          Printf.sprintf " (%d class(es) beyond the minimize cap)"
            r.skipped_minimize
        else ""));
  if r.hits = [] then Buffer.add_string buf "no violations found\n"
  else begin
    List.iter
      (fun f ->
        Buffer.add_string buf
          (Printf.sprintf "\n[%s]\n  found on : %s\n  minimized: %s (%d shrink step(s))\n  %s\n"
             (kind_key f.minimized_kind)
             (Spec.summary f.hit.spec)
             (Spec.summary f.minimized)
             f.shrink_steps
             (describe_kind f.minimized_kind)))
      r.findings;
    let counts = Hashtbl.create 16 in
    List.iter
      (fun h ->
        let key = kind_key h.kind in
        Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
      r.hits;
    Buffer.add_string buf "\nhits per class:\n";
    Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []
    |> List.sort compare
    |> List.iter (fun (k, n) ->
           Buffer.add_string buf (Printf.sprintf "  %-40s %d\n" k n))
  end;
  Buffer.contents buf

let kind_to_json = function
  | Assertion v ->
      Json.Obj
        [
          ("type", Json.String "assertion");
          ("check", Json.String v.Assert.check);
          ("detail", Json.String v.Assert.detail);
        ]
  | Profile_loses { rival; profile_ed_pct; rival_ed_pct } ->
      Json.Obj
        [
          ("type", Json.String "profile-loses");
          ("rival", Json.String rival);
          ("profile_ed_pct", Json.Float profile_ed_pct);
          ("rival_ed_pct", Json.Float rival_ed_pct);
        ]

let hit_to_json h =
  Json.Obj [ ("spec", Spec.to_json h.spec); ("kind", kind_to_json h.kind) ]

let finding_to_json f =
  Json.Obj
    [
      ("spec", Spec.to_json f.hit.spec);
      ("minimized", Spec.to_json f.minimized);
      ("shrink_steps", Json.Int f.shrink_steps);
      ("kind", kind_to_json f.minimized_kind);
    ]

let to_json r =
  Json.Obj
    [
      ("schema", Json.String "mcd-dvfs-campaign/1");
      ( "params",
        Json.Obj
          [
            ("count", Json.Int r.params.count);
            ("seed", Json.Int r.params.seed);
            ("slowdown_pct", Json.Float r.params.slowdown_pct);
            ("epsilon_pct", Json.Float r.params.epsilon_pct);
            ("margin_pct", Json.Float r.params.margin_pct);
            ("minimize", Json.Int r.params.minimize);
            ("observe", Json.Bool r.params.observe);
            ("train_insts", Json.Int r.params.train_insts);
            ("ref_insts", Json.Int r.params.ref_insts);
          ] );
      ("total", Json.Int r.total);
      ("hits", Json.List (List.map hit_to_json r.hits));
      ("findings", Json.List (List.map finding_to_json r.findings));
      ("skipped_minimize", Json.Int r.skipped_minimize);
    ]

let spec_of_replay_json j =
  let direct = Spec.of_json j in
  if Result.is_ok direct then direct
  else
    match Json.member "minimized" j with
    | Some m -> Spec.of_json m
    | None -> (
        match Json.member "spec" j with
        | Some s -> Spec.of_json s
        | None -> (
            match Option.bind (Json.member "findings" j) Json.to_list_opt with
            | Some (f :: _) -> (
                match Json.member "minimized" f with
                | Some m -> Spec.of_json m
                | None -> Error "campaign json: finding without minimized spec")
            | Some [] -> Error "campaign json: no findings to replay"
            | None -> direct))

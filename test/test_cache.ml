(* Tests for the persistent content-addressed result cache: canonical
   codec round-trips (qcheck), pinned key/digest stability, store
   behaviour under corruption and concurrent writers, and the Runner
   integration (warm results byte-identical to cold). *)

module Key = Mcd_cache.Key
module Store = Mcd_cache.Store
module Metrics = Mcd_power.Metrics
module Oracle = Mcd_core.Oracle
module Path_model = Mcd_core.Path_model
module Plan_io = Mcd_core.Plan_io
module Histogram = Mcd_util.Histogram
module Fs = Mcd_util.Fs
module Runner = Mcd_experiments.Runner
module Suite = Mcd_workloads.Suite
module Context = Mcd_profiling.Context

let qcheck ?(seed = 0xcac4e) t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

(* --- temp stores ----------------------------------------------------- *)

let dir_counter = ref 0

let with_temp_store f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mcd-cache-test.%d.%d" (Unix.getpid ()) !dir_counter)
  in
  Fs.rm_rf dir;
  Fun.protect
    ~finally:(fun () -> Fs.rm_rf dir)
    (fun () -> f (Store.create ~dir))

let rec object_files path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.to_list (Sys.readdir path)
      |> List.concat_map (fun e -> object_files (Filename.concat path e))
  | _ -> [ path ]
  | exception Unix.Unix_error _ -> []

(* --- codec round-trips ------------------------------------------------ *)

let run_gen =
  QCheck.Gen.(
    let pos_float = float_range 0.0 1e12 in
    let* runtime_ps = int_range 0 max_int in
    let* energy_pj = pos_float in
    (* at least one domain: the codec renders the array as a comma list,
       which has no representation for zero entries (real runs always
       carry five) *)
    let* per_domain_pj = array_size (int_range 1 6) pos_float in
    let* instructions = nat in
    let* cycles_front = nat in
    let* sync_crossings = nat in
    let* sync_penalties = nat in
    let* reconfigurations = nat in
    let* instr_points = nat in
    let+ instr_overhead_ps = nat in
    {
      Metrics.runtime_ps;
      energy_pj;
      per_domain_pj;
      instructions;
      cycles_front;
      sync_crossings;
      sync_penalties;
      reconfigurations;
      instr_points;
      instr_overhead_ps;
    })

let prop_metrics_roundtrip =
  QCheck.Test.make ~name:"Metrics.run codec round-trips bit-exactly"
    ~count:200
    (QCheck.make ~print:Metrics.encode run_gen)
    (fun run ->
      match Metrics.decode (Metrics.encode run) with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok run' ->
          (* Structural equality is bit-level for ints and the float
             payloads (%h is lossless); encode equality seals the
             byte-stability contract the cache depends on. *)
          run = run' && String.equal (Metrics.encode run) (Metrics.encode run'))

let analysis_gen =
  QCheck.Gen.(
    let pos_float = float_range 0.0 1e9 in
    let histogram_gen =
      let* bins = int_range 1 8 in
      let+ weights = list_size (return bins) (float_range 0.0 100.0) in
      let h = Histogram.create ~bins in
      List.iteri (fun bin weight -> Histogram.add h ~bin ~weight) weights;
      h
    in
    let segment_gen =
      let* base_ps = pos_float in
      let+ signatures =
        list_size (int_range 0 3) (array_size (int_range 1 4) pos_float)
      in
      { Path_model.base_ps; signatures }
    in
    let interval_gen =
      let* duration_ps = pos_float in
      let* histograms = option (array_size (int_range 1 3) histogram_gen) in
      let+ segments = list_size (int_range 0 3) segment_gen in
      { Oracle.duration_ps; histograms; paths = { Path_model.segments } }
    in
    let* interval_insts = int_range 1 1_000_000 in
    let+ intervals = array_size (int_range 0 4) interval_gen in
    { Oracle.interval_insts; intervals })

let prop_oracle_roundtrip =
  QCheck.Test.make ~name:"Oracle.analysis codec round-trips bit-exactly"
    ~count:50
    (QCheck.make ~print:Oracle.encode_analysis analysis_gen)
    (fun a ->
      let bytes = Oracle.encode_analysis a in
      match Oracle.decode_analysis bytes with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok a' -> String.equal bytes (Oracle.encode_analysis a'))

(* --- key model -------------------------------------------------------- *)

(* Pinned golden key: if this test ever fails, the canonical rendering
   or digest changed and every existing cache object is silently
   unreachable — bump Key.format_version instead of repinning. The
   model segment is pinned at 2 (the attack/decay idle-streak fix): a
   pre-fix object must miss cleanly rather than serve stale numbers. *)
let test_golden_key () =
  let key =
    Key.make ~kind:"run" ~parts:[ ("policy", "baseline"); ("note", "x y") ]
  in
  Alcotest.(check string)
    "canonical" "mcd-dvfs-cache/1 model/2 kind=run policy=baseline note=x%20y"
    (Key.canonical key);
  Alcotest.(check string)
    "digest" "765ea1de1b452a5f2b587189e86322f3" (Key.digest key);
  let tricky = Key.make ~kind:"run" ~parts:[ ("v", "a%b\nc d") ] in
  Alcotest.(check string)
    "percent-encoding" "mcd-dvfs-cache/1 model/2 kind=run v=a%25b%0ac%20d"
    (Key.canonical tricky)

(* Every key the Runner derives, pinned on one workload: a refactor of
   the run path that moves any of these digests strands every object
   already in a store (and every served digest), so a moved key must
   fail here rather than pass unnoticed. Captured from the pre-refactor
   derivation; repin only together with a deliberate version bump. *)
let derived_key_pins =
  [
    ("baseline", "09eae84c9926eff230ff94fc3ddb0fd8");
    ("single-clock 500", "0118355a80fe7485c2456ebcf44cac87");
    ("narrow baseline", "a10086a60ac38b419e039fa594b30691");
    ("policy baseline", "09eae84c9926eff230ff94fc3ddb0fd8");
    ("policy online", "801b1cd2dab4257ca0342f916728bb17");
    ("policy online-eager", "6311e3d4ab7bc44ddc3122511f008e6d");
    ("policy pid", "2e913c71f51db7ed02550885f94e2b08");
    ("policy cache-aware", "1bd731ca81bf3cf40ce082b998e813c1");
    ("policy util-prop", "94a87be88fc4f19d0567ab813e58ea25");
    ("policy fixed-750", "8ac38c2c915a8df32a50a08b76b5fba5");
    ("offline 7", "daf84c23fd1a5382bdddba3df7c85be4");
    ("offline 9", "742ef6bb8d24de1e89f033b34ac68170");
    ("profile train 7", "39725b465e6ee2ba6cd02905ca3575ff");
    ("profile train 5", "7c699ab0c4670528a766b64e8e217a0f");
    ("profile reference 7", "6f2067361b2ac69a3899a813f6229552");
    ("plan default", "036e784804dd4d23ce7b3e1632e200d5");
    ("plan threshold+shaker", "0804a00964a930b7d57c7329c8e0b0bc");
    ("oracle", "779f8bdcbb8743056cc43e6a3f069f40");
    ("sampled baseline", "aa13a19bd73882e73d159a09a586bfe3");
    ("sampled online", "801b1cd2dab4257ca0342f916728bb17");
  ]

let pinned_key_workload () = Suite.by_name "gsm encode"

let derived_keys () =
  let w = pinned_key_workload () in
  let lf = Context.lf in
  let baseline ?config () =
    Runner.key ?config (Policy Mcd_control.Policies.baseline) w
  in
  let profile train slowdown_pct =
    Runner.key (Profile { context = lf; train; slowdown_pct }) w
  in
  let exact () =
    [
      ("baseline", baseline ());
      ("single-clock 500", baseline ~config:(Mcd_cpu.Config.single_clock ~mhz:500) ());
      ("narrow baseline", baseline ~config:Mcd_experiments.Ablations.narrow_config ());
    ]
    @ List.map
        (fun p -> ("policy " ^ p.Mcd_control.Policy.label, Runner.policy_key p w))
        (Mcd_control.Policies.all ())
    @ [
        ("offline 7", Runner.key (Offline { slowdown_pct = 7.0 }) w);
        ("offline 9", Runner.key (Offline { slowdown_pct = 9.0 }) w);
        ("profile train 7", profile `Train 7.0);
        ("profile train 5", profile `Train 5.0);
        ("profile reference 7", profile `Reference 7.0);
        ("plan default", Runner.plan_key w ~context:lf ~train:`Train);
        ( "plan threshold+shaker",
          Runner.plan_key ~threshold_insts:10_000 ~shaker_passes:1 w ~context:lf
            ~train:`Train );
        ("oracle", Runner.oracle_key w);
      ]
  in
  let sampled () =
    [
      ("sampled baseline", baseline ());
      ("sampled online", Runner.policy_key (Mcd_control.Policies.online ()) w);
    ]
  in
  let exact = exact () in
  Runner.set_sim_mode (Runner.Sampled Mcd_cpu.Sampler.default_params);
  Fun.protect
    ~finally:(fun () -> Runner.set_sim_mode Runner.Exact)
    (fun () -> exact @ sampled ())

let test_derived_keys_pinned () =
  let keys = derived_keys () in
  Alcotest.(check (list string))
    "every pinned key derived" (List.map fst derived_key_pins) (List.map fst keys);
  List.iter2
    (fun (label, pinned) (_, key) ->
      Alcotest.(check string) label pinned (Key.digest key))
    derived_key_pins keys

(* --- store ------------------------------------------------------------ *)

let test_store_roundtrip () =
  with_temp_store @@ fun store ->
  let key = Key.make ~kind:"test" ~parts:[ ("n", "1") ] in
  Alcotest.(check bool) "empty store misses" true (Store.find store key = None);
  Store.add store key "payload bytes\n";
  Alcotest.(check (option string))
    "payload round-trips" (Some "payload bytes\n") (Store.find store key);
  let s = Store.stats store in
  Alcotest.(check int) "one store" 1 s.Store.stores;
  Alcotest.(check int) "one hit" 1 s.Store.hits;
  Alcotest.(check int) "one miss" 1 s.Store.misses

let test_store_corrupt_recomputes_and_heals () =
  with_temp_store @@ fun store ->
  let key = Key.make ~kind:"test" ~parts:[ ("n", "2") ] in
  let calls = ref 0 in
  let compute () =
    incr calls;
    "deterministic result"
  in
  let cached () =
    Store.cached store ~key ~encode:Fun.id
      ~decode:(fun s -> Ok s)
      compute
  in
  Alcotest.(check string) "cold" "deterministic result" (cached ());
  Alcotest.(check string) "warm" "deterministic result" (cached ());
  Alcotest.(check int) "computed once" 1 !calls;
  (* truncate the object: the next read must detect, recompute, heal *)
  (match object_files (Filename.concat (Store.dir store) "objects") with
  | [ path ] ->
      let len = (Unix.stat path).Unix.st_size in
      Unix.truncate path (len / 2)
  | files -> Alcotest.failf "expected one object, found %d" (List.length files));
  Alcotest.(check string) "corrupt falls back" "deterministic result" (cached ());
  Alcotest.(check int) "recomputed" 2 !calls;
  let s = Store.stats store in
  Alcotest.(check int) "corruption counted" 1 s.Store.corrupt;
  Alcotest.(check string) "healed" "deterministic result" (cached ());
  Alcotest.(check int) "no third compute" 2 !calls

(* An unwritable store degrades to recompute-only: with [objects/]
   replaced by a regular file every shard mkdir fails (ENOTDIR, which
   holds even for root), yet [cached] still answers and never raises. *)
let test_store_unwritable_degrades () =
  with_temp_store @@ fun store ->
  let objects = Filename.concat (Store.dir store) "objects" in
  Fs.rm_rf objects;
  Out_channel.with_open_bin objects (fun oc ->
      Out_channel.output_string oc "not a directory");
  let key = Key.make ~kind:"test" ~parts:[ ("n", "unwritable") ] in
  let cached () =
    Store.cached store ~key ~encode:Fun.id
      ~decode:(fun s -> Ok s)
      (fun () -> "computed anyway")
  in
  Alcotest.(check string) "cold" "computed anyway" (cached ());
  Alcotest.(check string) "still recomputes" "computed anyway" (cached ());
  Alcotest.(check int) "nothing stored" 0 (Store.stats store).Store.stores

(* An uncreatable store directory degrades the same way: [create] under
   a regular file (ENOTDIR, which holds even for root) must log and
   return a recompute-only store, not raise. *)
let test_store_uncreatable_degrades () =
  with_temp_store @@ fun store ->
  let file = Filename.concat (Store.dir store) "plain-file" in
  Out_channel.with_open_bin file (fun oc ->
      Out_channel.output_string oc "not a directory");
  let store = Store.create ~dir:(Filename.concat file "sub") in
  let key = Key.make ~kind:"test" ~parts:[ ("n", "uncreatable") ] in
  let cached () =
    Store.cached store ~key ~encode:Fun.id
      ~decode:(fun s -> Ok s)
      (fun () -> "computed anyway")
  in
  Alcotest.(check string) "cold" "computed anyway" (cached ());
  Alcotest.(check string) "still recomputes" "computed anyway" (cached ());
  Alcotest.(check int) "nothing stored" 0 (Store.stats store).Store.stores;
  Alcotest.(check (pair int int)) "no objects" (0, 0) (Store.disk_usage store)

let test_store_detects_wrong_key () =
  (* An object whose embedded canonical key disagrees with the lookup
     key (digest collision, or a corrupted shard layout) must read as
     corrupt, not as a wrong answer. *)
  with_temp_store @@ fun store ->
  let a = Key.make ~kind:"test" ~parts:[ ("n", "a") ] in
  let b = Key.make ~kind:"test" ~parts:[ ("n", "b") ] in
  Store.add store a "a's payload";
  let path_of key =
    let d = Key.digest key in
    Filename.concat
      (Filename.concat (Filename.concat (Store.dir store) "objects")
         (String.sub d 0 2))
      (String.sub d 2 (String.length d - 2))
  in
  let content = In_channel.with_open_bin (path_of a) In_channel.input_all in
  let dir = Filename.dirname (path_of b) in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Out_channel.with_open_bin (path_of b)
    (fun oc -> Out_channel.output_string oc content);
  Alcotest.(check (option string)) "mismatched key reads as absent" None
    (Store.find store b);
  Alcotest.(check bool) "counted as corrupt" true
    ((Store.stats store).Store.corrupt >= 1);
  Alcotest.(check (option string)) "honest object still reads" (Some "a's payload")
    (Store.find store a)

let test_store_concurrent_writers () =
  with_temp_store @@ fun store ->
  let key = Key.make ~kind:"test" ~parts:[ ("n", "parallel") ] in
  let payload = String.concat "," (List.init 100 string_of_int) in
  let worker () =
    Store.cached store ~key ~encode:Fun.id
      ~decode:(fun s -> Ok s)
      (fun () -> payload)
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  let results = List.map Domain.join domains in
  List.iter
    (fun r -> Alcotest.(check string) "same payload from every domain" payload r)
    results;
  Alcotest.(check (option string)) "object intact afterwards" (Some payload)
    (Store.find store key)

let test_store_gc () =
  with_temp_store @@ fun store ->
  List.iter
    (fun i ->
      Store.add store
        (Key.make ~kind:"test" ~parts:[ ("n", string_of_int i) ])
        (String.make 100 'x'))
    [ 1; 2; 3 ];
  let objects, bytes = Store.disk_usage store in
  Alcotest.(check int) "three objects" 3 objects;
  Alcotest.(check bool) "non-empty" true (bytes > 0);
  let removed, freed = Store.gc store in
  Alcotest.(check int) "gc removes all" 3 removed;
  Alcotest.(check int) "gc frees all bytes" bytes freed;
  Alcotest.(check (pair int int)) "store empty" (0, 0) (Store.disk_usage store);
  (* the sweep lands in the session counters (and therefore in exports) *)
  let s = Store.stats store in
  Alcotest.(check int) "gc_removed counted" removed s.Store.gc_removed;
  Alcotest.(check int) "gc_freed_bytes counted" freed s.Store.gc_freed_bytes;
  let m = Store.metrics store in
  Alcotest.(check int) "cache.gc_removed instrument" removed
    (Mcd_obs.Metrics.value (Mcd_obs.Metrics.counter m "cache.gc_removed"))

(* --- Runner integration ----------------------------------------------- *)

let test_runner_warm_results_byte_identical () =
  with_temp_store @@ fun store ->
  Fun.protect
    ~finally:(fun () -> Store.set_default None)
    (fun () ->
      Store.set_default (Some store);
      let w = Suite.by_name "adpcm decode" in
      Runner.clear_caches ();
      let cold_run = Runner.baseline w in
      let cold_plan = Runner.plan_for w ~context:Context.lf ~train:`Train in
      let s0 = Store.stats store in
      Alcotest.(check bool) "cold pass stores objects" true
        (s0.Store.stores >= 2);
      Runner.clear_caches ();
      let warm_run = Runner.baseline w in
      let warm_plan = Runner.plan_for w ~context:Context.lf ~train:`Train in
      let s1 = Store.stats store in
      Alcotest.(check bool) "warm pass hits the disk" true
        (s1.Store.hits - s0.Store.hits >= 2);
      Alcotest.(check string) "runs byte-identical"
        (Metrics.encode cold_run) (Metrics.encode warm_run);
      Alcotest.(check string) "plans byte-identical"
        (Plan_io.to_string cold_plan)
        (Plan_io.to_string warm_plan))

let suite =
  [
    qcheck prop_metrics_roundtrip;
    qcheck prop_oracle_roundtrip;
    ("golden key and digest pinned", `Quick, test_golden_key);
    ("runner-derived keys pinned", `Quick, test_derived_keys_pinned);
    ("store round-trip", `Quick, test_store_roundtrip);
    ( "corrupt object recomputes and heals",
      `Quick,
      test_store_corrupt_recomputes_and_heals );
    ("unwritable store degrades to recompute", `Quick, test_store_unwritable_degrades);
    ( "uncreatable store degrades to recompute",
      `Quick,
      test_store_uncreatable_degrades );
    ("wrong embedded key reads as corrupt", `Quick, test_store_detects_wrong_key);
    ("concurrent writers agree", `Quick, test_store_concurrent_writers);
    ("gc clears the store", `Quick, test_store_gc);
    ( "runner warm results byte-identical",
      `Slow,
      test_runner_warm_results_byte_identical );
  ]

(* Cold-vs-warm cache determinism smoke test for the @verify alias.

   Exercises the persistent result store end to end on one small
   MediaBench workload (adpcm decode), covering every cached payload
   kind — baseline run, oracle analysis, off-line run, profiling plan,
   profiled run:

   1. cold pass into a fresh temp store: objects get written;
   2. warm pass with the in-memory memo tables cleared: every result
      must come back byte-identical and from disk (hits, no new
      stores);
   3. corruption pass: truncate every object on disk, clear the memos
      again, and require the same bytes anyway — corruption must be
      detected (corrupt counter rises), degrade to recompute, and heal
      the objects by overwriting;
   4. healed pass: one more warm run must see no further corruption.

   Exits 0 on success, 1 with a message on the first violation. *)

open Kit

module Store = Mcd_cache.Store
module Runner = Mcd_experiments.Runner
module Metrics = Mcd_power.Metrics
module Plan_io = Mcd_core.Plan_io
module Suite = Mcd_workloads.Suite

let rec object_files path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.to_list (Sys.readdir path)
      |> List.concat_map (fun e -> object_files (Filename.concat path e))
  | _ -> [ path ]
  | exception Unix.Unix_error _ -> []

(* One rendering of everything the cache can serve for this workload:
   three run payloads and the plan text. Byte-compared across passes. *)
let render () =
  let w = Suite.by_name "adpcm decode" in
  let context = Mcd_profiling.Context.lf in
  let baseline = Runner.baseline w in
  let offline = Runner.offline_run w in
  let profiled = Runner.profile_run w ~context ~train:`Train in
  String.concat "\n---\n"
    [
      Metrics.encode baseline;
      Metrics.encode offline;
      Metrics.encode profiled.Runner.run;
      Plan_io.to_string (Lazy.force profiled.Runner.plan);
    ]

let smoke dir =
  let store = Store.create ~dir in
  Store.set_default (Some store);

  let cold = render () in
  let s0 = Store.stats store in
  check (s0.Store.stores >= 3) "cold pass stored only %d objects"
    s0.Store.stores;

  Runner.clear_caches ();
  let warm = render () in
  let s1 = Store.stats store in
  check (String.equal cold warm) "warm output differs from cold";
  check
    (s1.Store.hits - s0.Store.hits >= 3)
    "warm pass hit only %d objects"
    (s1.Store.hits - s0.Store.hits);
  check
    (s1.Store.stores = s0.Store.stores)
    "warm pass wrote %d new objects"
    (s1.Store.stores - s0.Store.stores);

  let objects = object_files (Filename.concat dir "objects") in
  check (objects <> []) "no objects on disk after the cold pass";
  List.iter
    (fun path ->
      let len = (Unix.stat path).Unix.st_size in
      Unix.truncate path (len / 2))
    objects;

  Runner.clear_caches ();
  let corrupted = render () in
  let s2 = Store.stats store in
  check (String.equal cold corrupted)
    "output after corruption differs from cold";
  check
    (s2.Store.corrupt - s1.Store.corrupt >= 3)
    "only %d corrupt objects detected after truncating all of them"
    (s2.Store.corrupt - s1.Store.corrupt);

  Runner.clear_caches ();
  let healed = render () in
  let s3 = Store.stats store in
  check (String.equal cold healed) "output after healing differs from cold";
  check
    (s3.Store.corrupt = s2.Store.corrupt)
    "%d objects still corrupt after the healing recompute"
    (s3.Store.corrupt - s2.Store.corrupt);
  check
    (s3.Store.hits - s2.Store.hits >= 3)
    "healed pass hit only %d objects"
    (s3.Store.hits - s2.Store.hits)

let () =
  with_temp_dir smoke;
  finish ()

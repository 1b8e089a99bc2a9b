(* The flat analysis kernels against their reference copies
   (kernel_ref.ml) over drawn DAG populations, and end-to-end digests of
   the plans and oracle analyses the kernels feed. *)

module Dag = Mcd_core.Dag
module Shaker = Mcd_core.Shaker
module Path_model = Mcd_core.Path_model
module Oracle = Mcd_core.Oracle
module Plan_io = Mcd_core.Plan_io
module Histogram = Mcd_util.Histogram
module Domain = Mcd_domains.Domain
module Config = Mcd_cpu.Config
module Pipeline = Mcd_cpu.Pipeline
module Interval_collector = Mcd_trace.Interval_collector
module Spec = Mcd_gen.Spec
module W = Mcd_workloads.Workload
module Suite = Mcd_workloads.Suite
module Runner = Mcd_experiments.Runner
module Context = Mcd_profiling.Context

let qcheck ?(seed = 0x5ca1e) t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

(* --- differential property ------------------------------------------- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_floats a b = Array.length a = Array.length b && Array.for_all2 same_float a b

let weights (r : Shaker.result) =
  Array.map
    (fun h -> Array.init (Histogram.bins h) (fun bin -> Histogram.get h ~bin))
    r.Shaker.histograms

(* The outputs on which the flat kernels and the references disagree
   bit for bit, by name. *)
let disagreements ~max_passes dag =
  let reference = Kernel_ref.of_dag dag in
  let fast = Shaker.run ~max_passes dag
  and slow = Kernel_ref.shaker_run ~max_passes reference in
  let fast_p = Dag.path_signatures dag
  and slow_p = Kernel_ref.path_signatures reference in
  List.filter_map
    (fun (name, agree) -> if agree then None else Some name)
    [
      ("histogram weights", Array.for_all2 same_floats (weights fast) (weights slow));
      ("passes", fast.Shaker.passes = slow.Shaker.passes);
      ("stretched_events", fast.Shaker.stretched_events = slow.Shaker.stretched_events);
      ("total_events", fast.Shaker.total_events = slow.Shaker.total_events);
      ("base_ps", same_float fast_p.Path_model.base_ps slow_p.Path_model.base_ps);
      ( "signatures",
        List.length fast_p.Path_model.signatures
        = List.length slow_p.Path_model.signatures
        && List.for_all2 same_floats fast_p.Path_model.signatures
             slow_p.Path_model.signatures );
    ]

let agree ?(max_passes = 24) dag =
  match disagreements ~max_passes dag with
  | [] -> true
  | names ->
      QCheck.Test.fail_reportf "%d-event DAG: %s differ" (Dag.size dag)
        (String.concat ", " names)

let prop_chain_dags =
  QCheck.Test.make ~name:"flat kernels match references on chain DAGs" ~count:60
    QCheck.(quad (int_range 1 60) (int_range 0 5) (int_range 0 3) (int_range 1 24))
    (fun (n, gap, d, max_passes) ->
      let dag =
        Dag.build (Test_core.chain_events ~domain:(Domain.of_index d) ~gap_cycles:gap n)
      in
      Dag.validate dag;
      agree ~max_passes dag)

(* Interval DAGs of a generated program's training run, cut the way the
   oracle cuts them. *)
let spec_dags (s : Spec.t) =
  let w = Spec.workload s in
  let collector = Interval_collector.create ~interval_insts:2_000 () in
  let config = Config.alpha21264_like in
  ignore
    (Pipeline.run
       ~probe:(Interval_collector.probe collector)
       ~config ~program:w.W.program ~input:w.W.train ~max_insts:6_000 ());
  List.map
    (Dag.build ~rob_size:config.Config.rob_size)
    (Interval_collector.intervals collector)

(* Failures print the shrunk spec, which replays the DAGs exactly. *)
let spec_arb =
  QCheck.make ~print:Spec.canonical
    ~shrink:(fun s -> QCheck.Iter.of_list (Spec.shrink s))
    QCheck.Gen.(map (fun seed -> Spec.draw ~seed ()) (int_range 0 1_000_000))

let prop_generated_dags =
  QCheck.Test.make ~name:"flat kernels match references on generated programs"
    ~count:12 spec_arb
    (fun s -> List.for_all (fun dag -> agree dag) (spec_dags s))

(* --- plan and oracle golden ------------------------------------------- *)

(* Every suite workload with its instruction windows cut to an eighth,
   so the whole suite's analyses stay cheap. *)
let eighth (w : W.t) =
  {
    w with
    W.train_window = w.W.train_window / 8;
    ref_window = w.W.ref_window / 8;
    ref_offset = w.W.ref_offset / 8;
  }

(* Pinned from the record-per-event kernels kernel_ref.ml copies: MD5
   of the canonical Plan_io text of the L+F training plan, and of the
   encoded oracle analysis of the reference run. *)
let golden =
  [
    ("adpcm decode", "74e0e1ce9bee46ae4b2d150b029699f1", "af390575cdcc84ba2ff2c7e4f27cec07");
    ("adpcm encode", "46ed3fc7072e6aaf956ea63085de29f7", "40d75f12ddedb86988bab78473a07704");
    ("epic decode", "fb803b623f2442b9e958e02a8a4c5b13", "c5aa5961bb72557556e80f46fb159438");
    ("epic encode", "f7f124f3c89c795ac29a5844f5c1ca2a", "a27436708993c854a9b48b2f85344835");
    ("g721 decode", "c5cdc335ee7acb9802cb536e3676fe12", "75eb162391f75fca8e177844b560ee69");
    ("g721 encode", "bc2b0ba95aed85b01a1465e08e035677", "9b92a92bd07ef6bd2f91db764d4a9d1f");
    ("gsm decode", "990fcc13d8bb4a716dd5b06052f92b5d", "14a21cbf567d02129390140e3e7a7ae6");
    ("gsm encode", "5a23846643b62916c82e13e1713530c1", "e417736cdff307fe9c9994216e17ac3c");
    ("jpeg compress", "c0ae8d9062e7c3a84c6f51e7070a9940", "684ba03190861ad6654b76fcbfea4e48");
    ("jpeg decompress", "587fa8e5cec0304183bd03a685a0bd54", "85d047f8f7d0c4f4d87965a33c0d7567");
    ("mpeg2 decode", "f84fb360ad5845d64aeb199791d8d0a0", "5725adde2b43be101efbb3514b8766eb");
    ("mpeg2 encode", "d4e3f64f273fc6febc1f1c16a1c13f2b", "edaac4745f63b73c87cf913eb4579741");
    ("gzip", "7818ca9a95ca6a0feacb3f33ed3e7da7", "b0c52aee7981163ed4d8835c11f70187");
    ("vpr", "9eb50e94bbe635e8fbe5d7fac14c5a8a", "b94a03857545fa5f84225b1ca7771a42");
    ("mcf", "20044d8bfbc194437dd59050ba11a8ca", "4cd17f6d72e30b9872742e438c738e19");
    ("swim", "50727f407f366390c892d1f4a9cecdf0", "05972f6c407336ec8f9a7963547078e0");
    ("applu", "92c968e4aea484cb84c22c13f1306432", "00afe449d1debefed7ce32493a77bc3e");
    ("art", "62294cc89eca1564656b6588d3579741", "b8bb48dc254df1cc4047e31f81c922e7");
    ("equake", "ae5330790c707618ef1ba71924d7deb9", "b83ee8fc9c22f0942db48d29548a7470");
  ]

let test_golden_analyses () =
  Alcotest.(check int) "every suite workload pinned" (List.length Suite.all)
    (List.length golden);
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (name, plan_md5, oracle_md5) ->
      let w = eighth (Suite.by_name name) in
      let plan = Runner.plan_for w ~context:Context.lf ~train:`Train in
      Alcotest.(check string) (name ^ " plan") plan_md5 (md5 (Plan_io.to_string plan));
      let analysis =
        Oracle.analyze ~program:w.W.program ~input:w.W.reference
          ~trace_insts:(w.W.ref_offset + w.W.ref_window) ()
      in
      Alcotest.(check string) (name ^ " oracle") oracle_md5
        (md5 (Oracle.encode_analysis analysis)))
    golden

let suite =
  [
    qcheck prop_chain_dags;
    qcheck prop_generated_dags;
    ("plan and oracle golden, 19 workloads", `Slow, test_golden_analyses);
  ]

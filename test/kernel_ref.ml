(* Reference copies of the analysis kernels, written for clarity rather
   than speed: the shaker and the longest-path signature as they read
   over a record-per-event DAG with per-event adjacency arrays, one
   probe per traversal, closures and folds throughout. The flat kernels
   in Mcd_core.Dag and Mcd_core.Shaker must agree with these bit for
   bit (test_kernels.ml). *)

module Histogram = Mcd_util.Histogram
module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq
module Dag = Mcd_core.Dag
module Shaker = Mcd_core.Shaker
module Path_model = Mcd_core.Path_model

type event = { domain : Domain.t; start : float; duration : float }

type dag = {
  events : event array;
  succs : int array array;
  preds : int array array;
  t_min : float;
  t_max : float;
}

let of_dag (d : Dag.t) =
  let rows off idx =
    Array.init (Dag.size d) (fun i -> Array.sub idx off.(i) (off.(i + 1) - off.(i)))
  in
  {
    events =
      Array.init (Dag.size d) (fun id ->
          {
            domain = Domain.of_index d.Dag.domain.(id);
            start = d.Dag.start.(id);
            duration = d.Dag.duration.(id);
          });
    succs = rows d.Dag.succ_off d.Dag.succ;
    preds = rows d.Dag.pred_off d.Dag.pred;
    t_min = d.Dag.t_min;
    t_max = d.Dag.t_max;
  }

(* --- path signatures ----------------------------------------------------- *)

let scaled_gap_cap_ps = 1800.0

let longest_path_signature t ~slow =
  let n = Array.length t.events in
  if n = 0 then Array.make (Domain.count + 1) 0.0
  else begin
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare (t.events.(a).start, a) (t.events.(b).start, b)) order;
    let s_time = Array.make n 0.0 in
    let best_pred = Array.make n (-1) in
    let gap u v =
      let eu = t.events.(u) and ev = t.events.(v) in
      ev.start -. (eu.start +. eu.duration)
    in
    Array.iter
      (fun id ->
        let e = t.events.(id) in
        let from =
          Array.fold_left
            (fun acc pid ->
              let eu = t.events.(pid) in
              let g = gap pid id in
              let hop =
                if g >= 0.0 then
                  let scaled = Float.min g scaled_gap_cap_ps in
                  (scaled *. slow e.domain) +. (g -. scaled)
                else g *. slow eu.domain
              in
              let cand = s_time.(pid) +. (eu.duration *. slow eu.domain) +. hop in
              if cand > fst acc then (cand, pid) else acc)
            (e.start -. t.t_min, -1)
            t.preds.(id)
        in
        s_time.(id) <- fst from;
        best_pred.(id) <- snd from)
      order;
    let sink = ref 0 in
    let end_of id =
      s_time.(id) +. (t.events.(id).duration *. slow t.events.(id).domain)
    in
    Array.iteri (fun id _ -> if end_of id > end_of !sink then sink := id) t.events;
    let signature = Array.make (Domain.count + 1) 0.0 in
    let add d v = signature.(d) <- signature.(d) +. v in
    let add_dom domain v = add (Domain.index domain) v in
    let add_const v = add Domain.count v in
    add_dom t.events.(!sink).domain t.events.(!sink).duration;
    let rec back id =
      let pid = best_pred.(id) in
      if pid < 0 then add_const (t.events.(id).start -. t.t_min)
      else begin
        let eu = t.events.(pid) and ev = t.events.(id) in
        let g = gap pid id in
        if g >= 0.0 then begin
          let scaled = Float.min g scaled_gap_cap_ps in
          add_dom ev.domain scaled;
          add_const (g -. scaled)
        end
        else add_dom eu.domain g;
        add_dom eu.domain eu.duration;
        back pid
      end
    in
    back !sink;
    signature
  end

let path_signatures t =
  let base_sig = longest_path_signature t ~slow:(fun _ -> 1.0) in
  let base_ps = Array.fold_left ( +. ) 0.0 base_sig in
  let probes =
    (fun (_ : Domain.t) -> 1.0)
    :: (fun (_ : Domain.t) -> 4.0)
    :: List.map (fun d other -> if other = d then 4.0 else 1.0) Domain.all
  in
  let signatures = List.map (fun slow -> longest_path_signature t ~slow) probes in
  { Path_model.base_ps; signatures }

(* --- shaker --------------------------------------------------------------- *)

let fmax = float_of_int Freq.fmax_mhz
let power_at ~p0 ~f = p0 *. Freq.energy_scale f *. (f /. fmax)
let freq_of ~orig ~dur = fmax *. orig /. dur
let dur_at ~orig ~f = orig *. fmax /. f

let target_freq ~p0 ~orig ~dur ~slack ~threshold =
  let cur_f = freq_of ~orig ~dur in
  let rec go best idx =
    if idx < 0 then best
    else
      let f = float_of_int (Freq.of_index idx) in
      if f >= cur_f then go best (idx - 1)
      else if power_at ~p0 ~f:best <= threshold then best
      else
        let extra = dur_at ~orig ~f -. dur in
        if extra <= slack +. 1e-9 then go f (idx - 1) else best
  in
  go cur_f (Freq.num_steps - 1)

let shaker_run ?(max_passes = 24) ?(threshold_decay = 0.85) dag =
  let n = Array.length dag.events in
  let start = Array.map (fun e -> e.start) dag.events in
  let dur = Array.map (fun e -> e.duration) dag.events in
  let orig = Array.copy dur in
  let p0 = Array.map (fun e -> Domain.relative_power e.domain) dag.events in
  let fwd_order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare (start.(a), a) (start.(b), b)) fwd_order;
  let bwd_order = Array.of_list (List.rev (Array.to_list fwd_order)) in
  let out_slack id =
    let e_end = start.(id) +. dur.(id) in
    let s = dag.succs.(id) in
    if Array.length s = 0 then Float.max 0.0 (dag.t_max -. e_end)
    else
      Array.fold_left
        (fun acc sid -> Float.min acc (start.(sid) -. e_end))
        Float.infinity s
      |> Float.max 0.0
  in
  let in_slack id =
    let p = dag.preds.(id) in
    if Array.length p = 0 then Float.max 0.0 (start.(id) -. dag.t_min)
    else
      Array.fold_left
        (fun acc pid -> Float.min acc (start.(id) -. (start.(pid) +. dur.(pid))))
        Float.infinity p
      |> Float.max 0.0
  in
  let min_succ_start id =
    let s = dag.succs.(id) in
    if Array.length s = 0 then dag.t_max
    else Array.fold_left (fun acc sid -> Float.min acc start.(sid)) Float.infinity s
  in
  let max_pred_end id =
    let p = dag.preds.(id) in
    if Array.length p = 0 then dag.t_min
    else
      Array.fold_left
        (fun acc pid -> Float.max acc (start.(pid) +. dur.(pid)))
        Float.neg_infinity p
  in
  let stretched = ref false in
  let stretch_threshold = ref (0.95 *. Array.fold_left Float.max 0.0 p0) in
  let stretch id slack =
    let f_cur = freq_of ~orig:orig.(id) ~dur:dur.(id) in
    let f' =
      target_freq ~p0:p0.(id) ~orig:orig.(id) ~dur:dur.(id) ~slack
        ~threshold:!stretch_threshold
    in
    if f' < f_cur -. 1e-9 then begin
      dur.(id) <- dur_at ~orig:orig.(id) ~f:f';
      stretched := true
    end
  in
  let hot id =
    power_at ~p0:p0.(id) ~f:(freq_of ~orig:orig.(id) ~dur:dur.(id)) > !stretch_threshold
  in
  let passes_done = ref 0 and quiet_pairs = ref 0 and pass = ref 0 in
  while !pass < max_passes && !quiet_pairs < 2 do
    incr pass;
    stretched := false;
    Array.iter
      (fun id ->
        let slack = out_slack id in
        if slack > 0.0 && hot id then stretch id slack;
        let latest = min_succ_start id -. dur.(id) in
        if latest > start.(id) then start.(id) <- latest)
      bwd_order;
    Array.iter
      (fun id ->
        let slack = in_slack id in
        if slack > 0.0 && hot id then begin
          let before = dur.(id) in
          stretch id slack;
          let grown = dur.(id) -. before in
          if grown > 0.0 then start.(id) <- start.(id) -. grown
        end;
        let earliest = max_pred_end id in
        if earliest < start.(id) then start.(id) <- earliest)
      fwd_order;
    passes_done := !pass;
    stretch_threshold := !stretch_threshold *. threshold_decay;
    if !stretched then quiet_pairs := 0 else incr quiet_pairs
  done;
  let histograms =
    Array.init Domain.count (fun _ -> Histogram.create ~bins:Freq.num_steps)
  in
  let stretched_events = ref 0 in
  Array.iteri
    (fun id e ->
      let f = freq_of ~orig:orig.(id) ~dur:dur.(id) in
      let step =
        let rec go idx =
          if idx <= 0 then 0
          else if float_of_int (Freq.of_index idx) <= f +. 1e-6 then idx
          else go (idx - 1)
        in
        go (Freq.num_steps - 1)
      in
      if step < Freq.num_steps - 1 then incr stretched_events;
      Histogram.add histograms.(Domain.index e.domain) ~bin:step
        ~weight:(orig.(id) /. 1000.0))
    dag.events;
  {
    Shaker.histograms;
    passes = !passes_done;
    stretched_events = !stretched_events;
    total_events = n;
  }

module Histogram = Mcd_util.Histogram
module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq

type result = {
  histograms : Histogram.t array;
  passes : int;
  stretched_events : int;
  total_events : int;
}

let fmax = float_of_int Freq.fmax_mhz

(* Power factor of an event running at frequency [f] (MHz): the domain's
   relative power, scaled by the operating point (V^2 for dynamic energy
   per cycle, x f/fmax for cycle rate). *)
let power_at ~p0 ~f = p0 *. Freq.energy_scale f *. (f /. fmax)

let freq_of ~orig ~dur = fmax *. orig /. dur

(* The frequency steps in MHz, and [step_power.(d * Freq.num_steps +
   idx)], {!power_at} of domain [d] at step [idx]: the shaker never
   evaluates the voltage model at a step. *)
let step_mhz = Array.init Freq.num_steps (fun idx -> float_of_int (Freq.of_index idx))

let step_power =
  Array.init (Domain.count * Freq.num_steps) (fun k ->
      power_at
        ~p0:(Domain.relative_power (Domain.of_index (k / Freq.num_steps)))
        ~f:step_mhz.(k mod Freq.num_steps))

(* The step an event running at [f] MHz sustains: the highest step at or
   below [f] (with a little rounding slack), the lowest step at worst. *)
let snap_down f =
  let rec go idx =
    if idx <= 0 then 0
    else if step_mhz.(idx) <= f +. 1e-6 then idx
    else go (idx - 1)
  in
  go (Freq.num_steps - 1)

(* [Float.min]/[Float.max] for the sweeps' operands, which are never NaN
   or negative zero: there the plain comparison picks the same value,
   and it compiles inline instead of boxing both arguments. *)
let[@inline] lesser (a : float) b = if a < b then a else b
let[@inline] greater (a : float) b = if a > b then a else b

let run ?(max_passes = 24) ?(threshold_decay = 0.85) (dag : Dag.t) =
  let n = Dag.size dag in
  let start = Array.copy dag.Dag.start in
  let dur = Array.copy dag.Dag.duration in
  let orig = dag.Dag.duration in
  (* [orig * fmax], the numerator of every step duration *)
  let work = Array.map (fun o -> o *. fmax) orig in
  let dom = dag.Dag.domain in
  let p0 = Array.map (fun d -> Domain.relative_power (Domain.of_index d)) dom in
  (* each event's current frequency and power factor, refreshed only
     when it is stretched *)
  let cur_f = Array.init n (fun id -> freq_of ~orig:orig.(id) ~dur:dur.(id)) in
  let cur_p = Array.init n (fun id -> power_at ~p0:p0.(id) ~f:cur_f.(id)) in
  let succ_off = dag.Dag.succ_off and succ = dag.Dag.succ in
  let pred_off = dag.Dag.pred_off and pred = dag.Dag.pred in
  let order = dag.Dag.order in
  let stretched = ref false in
  let stretch_threshold =
    let m = Array.fold_left Float.max 0.0 p0 in
    ref (0.95 *. m)
  in
  (* Lower [id] to the lowest step reachable given [slack] and the power
     threshold: step down while power still exceeds the threshold and
     the extra duration fits in the slack. *)
  let stretch id slack =
    let f_cur = cur_f.(id) in
    let row = dom.(id) * Freq.num_steps in
    let best = ref f_cur and best_p = ref cur_p.(id) in
    let idx = ref (Freq.num_steps - 1) in
    while !idx >= 0 && step_mhz.(!idx) >= f_cur do
      decr idx
    done;
    while !idx >= 0 && !best_p > !stretch_threshold do
      let f = step_mhz.(!idx) in
      if work.(id) /. f -. dur.(id) <= slack +. 1e-9 then begin
        best := f;
        best_p := step_power.(row + !idx);
        decr idx
      end
      else idx := -1
    done;
    if !best < f_cur -. 1e-9 then begin
      dur.(id) <- work.(id) /. !best;
      cur_f.(id) <- freq_of ~orig:orig.(id) ~dur:dur.(id);
      cur_p.(id) <- power_at ~p0:p0.(id) ~f:cur_f.(id);
      stretched := true
    end
  in
  let passes_done = ref 0 in
  let quiet_pairs = ref 0 in
  let pass = ref 0 in
  while !pass < max_passes && !quiet_pairs < 2 do
    incr pass;
    stretched := false;
    (* backward pass: consume outgoing slack, push remaining slack to
       incoming edges by moving the event later. One scan of the
       successors gives both: the earliest successor start bounds the
       move, and the slack is that bound less the event's end (rounding
       is monotone, so the minimum of the differences is the difference
       of the minimum, bit for bit). *)
    for i = n - 1 downto 0 do
      let id = order.(i) in
      let lo = succ_off.(id) and hi = succ_off.(id + 1) in
      let bound =
        if lo = hi then dag.Dag.t_max
        else begin
          let m = ref Float.infinity in
          for k = lo to hi - 1 do
            m := lesser !m start.(succ.(k))
          done;
          !m
        end
      in
      let slack = greater 0.0 (bound -. (start.(id) +. dur.(id))) in
      if slack > 0.0 && cur_p.(id) > !stretch_threshold then stretch id slack;
      (* move as late as dependences allow *)
      let latest = bound -. dur.(id) in
      if latest > start.(id) then start.(id) <- latest
    done;
    (* forward pass: consume incoming slack, push remaining slack to
       outgoing edges by moving the event earlier; the latest
       predecessor end is both the slack's origin and the bound *)
    for i = 0 to n - 1 do
      let id = order.(i) in
      let lo = pred_off.(id) and hi = pred_off.(id + 1) in
      let bound =
        if lo = hi then dag.Dag.t_min
        else begin
          let m = ref Float.neg_infinity in
          for k = lo to hi - 1 do
            let pid = pred.(k) in
            m := greater !m (start.(pid) +. dur.(pid))
          done;
          !m
        end
      in
      let slack = greater 0.0 (start.(id) -. bound) in
      if slack > 0.0 && cur_p.(id) > !stretch_threshold then begin
        let before = dur.(id) in
        stretch id slack;
        (* growing into incoming slack means starting earlier *)
        let grown = dur.(id) -. before in
        if grown > 0.0 then start.(id) <- start.(id) -. grown
      end;
      if bound < start.(id) then start.(id) <- bound
    done;
    passes_done := !pass;
    stretch_threshold := !stretch_threshold *. threshold_decay;
    if !stretched then quiet_pairs := 0 else incr quiet_pairs
  done;
  let histograms =
    Array.init Domain.count (fun _ -> Histogram.create ~bins:Freq.num_steps)
  in
  let stretched_events = ref 0 in
  for id = 0 to n - 1 do
    let step = snap_down cur_f.(id) in
    if step < Freq.num_steps - 1 then incr stretched_events;
    let cycles = orig.(id) /. 1000.0 in
    Histogram.add histograms.(dom.(id)) ~bin:step ~weight:cycles
  done;
  {
    histograms;
    passes = !passes_done;
    stretched_events = !stretched_events;
    total_events = n;
  }

let frequencies_of_durations ~orig ~stretched =
  Array.mapi
    (fun i o -> Freq.of_index (snap_down (freq_of ~orig:o ~dur:stretched.(i))))
    orig

module Probe = Mcd_cpu.Probe
module Domain = Mcd_domains.Domain
module Vec = Mcd_util.Vec

type t = {
  start : float array;
  duration : float array;
  domain : int array;
  succ_off : int array;
  succ : int array;
  pred_off : int array;
  pred : int array;
  order : int array;
  t_min : float;
  t_max : float;
}

(* per-instruction event ids by stage *)
type slots = {
  mutable fetch : int;
  mutable dispatch : int;
  mutable work : int; (* execute or mem *)
  mutable retire : int;
}

let empty_slots () = { fetch = -1; dispatch = -1; work = -1; retire = -1 }

let default_rob_size = 80

(* Compressed rows of the edges [key.(k) -> value.(k)], one row per
   [key] vertex. The counting sort is stable, so every row keeps the
   order in which its edges were discovered. *)
let csr n ~key ~value =
  let off = Array.make (n + 1) 0 in
  Vec.iter (fun u -> off.(u + 1) <- off.(u + 1) + 1) key;
  for i = 1 to n do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let fill = Array.sub off 0 n in
  let row = Array.make (Vec.length key) 0 in
  Vec.iteri
    (fun k u ->
      row.(fill.(u)) <- Vec.get value k;
      fill.(u) <- fill.(u) + 1)
    key;
  (off, row)

let build ?(rob_size = default_rob_size) (raw : Probe.event array) =
  let n = Array.length raw in
  let start = Array.map (fun (e : Probe.event) -> float_of_int e.Probe.start) raw in
  let duration =
    Array.map (fun (e : Probe.event) -> float_of_int (max 1 e.Probe.duration)) raw
  in
  let domain = Array.map (fun (e : Probe.event) -> Domain.index e.Probe.domain) raw in
  let by_seq = Hashtbl.create (max 16 (n / 4)) in
  Array.iteri
    (fun id (e : Probe.event) ->
      let slots =
        match Hashtbl.find_opt by_seq e.Probe.seq with
        | Some s -> s
        | None ->
            let s = empty_slots () in
            Hashtbl.add by_seq e.Probe.seq s;
            s
      in
      match e.Probe.stage with
      | Probe.Fetch_s -> slots.fetch <- id
      | Probe.Dispatch_s -> slots.dispatch <- id
      | Probe.Execute_s | Probe.Mem_s -> slots.work <- id
      | Probe.Retire_s -> slots.retire <- id)
    raw;
  let src = Vec.create () and dst = Vec.create () in
  let add_edge u v =
    if u >= 0 && v >= 0 && u <> v then begin
      Vec.push src u;
      Vec.push dst v
    end
  in
  (* intra-instruction chains *)
  Hashtbl.iter
    (fun _seq s ->
      let chain = [ s.fetch; s.dispatch; s.work; s.retire ] in
      let present = List.filter (fun id -> id >= 0) chain in
      let rec link = function
        | a :: (b :: _ as rest) ->
            add_edge a b;
            link rest
        | [ _ ] | [] -> ()
      in
      link present)
    by_seq;
  (* data and control dependences, serialization of fetch and retire,
     and reorder-buffer occupancy pressure *)
  let dep_edges id (e : Probe.event) =
    Array.iter
      (fun pseq ->
        match Hashtbl.find_opt by_seq pseq with
        | Some ps when ps.work >= 0 -> add_edge ps.work id
        | Some _ | None -> ())
      e.Probe.dep_seqs
  in
  let last_fetch = ref (-1) and last_retire = ref (-1) in
  (* execution-resource serialization: within a domain, the k-th recent
     operation occupies one of [units] functional units, so an operation
     cannot start before the one [units] back has finished; without
     these edges, co-scheduled operations would each claim the same idle
     gap as private slack *)
  let resource_lag = [| 1; 4; 2; 2 |] (* front, int, fp, mem *) in
  let resource_fifo = Array.map (fun lag -> Array.make lag (-1)) resource_lag in
  let resource_pos = Array.make (Array.length resource_lag) 0 in
  let resource_edge id d =
    let lag = resource_lag.(d) in
    let fifo = resource_fifo.(d) in
    let pos = resource_pos.(d) in
    let prev = fifo.(pos mod lag) in
    if prev >= 0 then add_edge prev id;
    fifo.(pos mod lag) <- id;
    resource_pos.(d) <- pos + 1
  in
  Array.iteri
    (fun id (e : Probe.event) ->
      match e.Probe.stage with
      | Probe.Fetch_s ->
          add_edge !last_fetch id;
          last_fetch := id;
          (* control dependence on a mispredicted branch *)
          dep_edges id e;
          (* ROB pressure: instruction i cannot be fetched before
             instruction i - rob_size retires *)
          (match Hashtbl.find_opt by_seq (e.Probe.seq - rob_size) with
          | Some ps when ps.retire >= 0 -> add_edge ps.retire id
          | Some _ | None -> ())
      | Probe.Retire_s ->
          add_edge !last_retire id;
          last_retire := id
      | Probe.Execute_s | Probe.Mem_s ->
          dep_edges id e;
          resource_edge id domain.(id)
      | Probe.Dispatch_s -> ())
    raw;
  let succ_off, succ = csr n ~key:src ~value:dst in
  let pred_off, pred = csr n ~key:dst ~value:src in
  (* the sweep order of the kernels: recorded start, ties on the id *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare start.(a) start.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  let t_min = Array.fold_left Float.min Float.infinity start in
  let t_max = ref Float.neg_infinity in
  for id = 0 to n - 1 do
    t_max := Float.max !t_max (start.(id) +. duration.(id))
  done;
  {
    start;
    duration;
    domain;
    succ_off;
    succ;
    pred_off;
    pred;
    order;
    t_min = (if n = 0 then 0.0 else t_min);
    t_max = (if n = 0 then 0.0 else !t_max);
  }

let size t = Array.length t.start
let edge_count t = Array.length t.succ

let slack t id =
  let e_end = t.start.(id) +. t.duration.(id) in
  let lo = t.succ_off.(id) and hi = t.succ_off.(id + 1) in
  if lo = hi then Float.max 0.0 (t.t_max -. e_end)
  else begin
    let acc = ref Float.infinity in
    for k = lo to hi - 1 do
      acc := Float.min !acc (Float.max 0.0 (t.start.(t.succ.(k)) -. e_end))
    done;
    !acc
  end

(* The first portion of each edge's observed gap is latch/wakeup/
   synchronization time that stretches with the consumer domain's
   period; anything beyond that is a wait on other resources, carried as
   a frequency-independent constant. The cap is roughly one wakeup cycle
   plus one synchronization capture at full speed. *)
let scaled_gap_cap_ps = 1800.0

(* The probe set: per-domain stretch factors of full speed, all domains
   at 4x, and each domain at 4x alone. *)
let probes =
  Array.make Domain.count 1.0
  :: Array.make Domain.count 4.0
  :: List.map
       (fun d ->
         Array.init Domain.count (fun i -> if i = Domain.index d then 4.0 else 1.0))
       Domain.all
  |> Array.of_list

let num_probes = Array.length probes

(* [factor.(d * num_probes + p)]: the stretch of domain [d] under probe
   [p], laid out so one event's six factors are adjacent. *)
let factor =
  Array.init (Domain.count * num_probes) (fun k ->
      probes.(k mod num_probes).(k / num_probes))

(* Longest paths under every probe at once. The DP models event start
   times: a consumer starts no earlier than each producer's start plus
   the producer's (stretched) duration plus the hop gap, where the
   first [scaled_gap_cap_ps] of a non-negative gap scales with the
   consumer's domain (latch/wakeup/synchronization) and the remainder is
   a frequency-independent wait; a negative gap (co-scheduled events,
   e.g. a 4-wide fetch group) scales with the producer's domain so that
   co-issue stays co-issue at any frequency. Every event is also
   anchored at its recorded start as a frequency-independent lower bound
   (waits the DAG does not explain). At full speed the computed makespan
   therefore equals the recorded one exactly.

   One pass over the start order carries the six probes side by side:
   [s_time.(id * num_probes + p)] is event [id]'s start under probe [p]
   and [best] its binding predecessor (the first strictly longest, -1
   for the anchor). Each probe's float operations are the ones a
   traversal of that probe alone performs, in the same order. A
   predecessor that comes later in the start order (an edge backward in
   recorded time) is read before it is computed, as 0.0. *)
let longest_paths t =
  let n = size t in
  let np = num_probes in
  let start = t.start and dur = t.duration and dom = t.domain in
  let s_time = Array.make (n * np) 0.0 in
  let best = Array.make (n * np) (-1) in
  Array.iter
    (fun id ->
      let b = id * np and fv = dom.(id) * np in
      let sv = start.(id) in
      let anchor = sv -. t.t_min in
      for p = 0 to np - 1 do
        s_time.(b + p) <- anchor
      done;
      for k = t.pred_off.(id) to t.pred_off.(id + 1) - 1 do
        let pid = t.pred.(k) in
        let du = dur.(pid) in
        let bu = pid * np and fu = dom.(pid) * np in
        let g = sv -. (start.(pid) +. du) in
        if g >= 0.0 then begin
          let scaled = Float.min g scaled_gap_cap_ps in
          let rest = g -. scaled in
          for p = 0 to np - 1 do
            let hop = (scaled *. factor.(fv + p)) +. rest in
            let cand = s_time.(bu + p) +. (du *. factor.(fu + p)) +. hop in
            if cand > s_time.(b + p) then begin
              s_time.(b + p) <- cand;
              best.(b + p) <- pid
            end
          done
        end
        else
          for p = 0 to np - 1 do
            let hop = g *. factor.(fu + p) in
            let cand = s_time.(bu + p) +. (du *. factor.(fu + p)) +. hop in
            if cand > s_time.(b + p) then begin
              s_time.(b + p) <- cand;
              best.(b + p) <- pid
            end
          done
      done)
    t.order;
  (s_time, best)

(* Composition of probe [p]'s winning path: per-domain scaling time in
   the first {!Domain.count} entries (possibly negative contributions
   from overlaps), frequency-independent time in the last. *)
let signature t (s_time, best) p =
  let np = num_probes in
  let start = t.start and dur = t.duration and dom = t.domain in
  let end_of id = s_time.((id * np) + p) +. (dur.(id) *. factor.((dom.(id) * np) + p)) in
  let sink = ref 0 in
  for id = 1 to size t - 1 do
    if end_of id > end_of !sink then sink := id
  done;
  let signature = Array.make (Domain.count + 1) 0.0 in
  let add d v = signature.(d) <- signature.(d) +. v in
  (* the sink's own duration *)
  add dom.(!sink) dur.(!sink);
  let rec back id =
    let pid = best.((id * np) + p) in
    if pid < 0 then add Domain.count (start.(id) -. t.t_min)
    else begin
      let g = start.(id) -. (start.(pid) +. dur.(pid)) in
      if g >= 0.0 then begin
        let scaled = Float.min g scaled_gap_cap_ps in
        add dom.(id) scaled;
        add Domain.count (g -. scaled)
      end
      else add dom.(pid) g;
      add dom.(pid) dur.(pid);
      back pid
    end
  in
  back !sink;
  signature

let path_signatures t =
  let signatures =
    if size t = 0 then
      List.init num_probes (fun _ -> Array.make (Domain.count + 1) 0.0)
    else
      let paths = longest_paths t in
      List.init num_probes (signature t paths)
  in
  (* the first probe is full speed *)
  let base_ps = Array.fold_left ( +. ) 0.0 (List.hd signatures) in
  { Path_model.base_ps; signatures }

let validate t =
  let n = size t in
  let tolerance = 2000.0 (* ps: sync + jitter slop *) in
  let fail fmt = Printf.ksprintf invalid_arg ("Dag.validate: " ^^ fmt) in
  if List.exists (fun len -> len <> n)
       [ Array.length t.duration; Array.length t.domain; Array.length t.order ]
  then fail "per-event arrays disagree in length";
  let check_rows what off row =
    if Array.length off <> n + 1 || off.(0) <> 0 || off.(n) <> Array.length row then
      fail "malformed %s offsets" what;
    for id = 0 to n - 1 do
      if off.(id + 1) < off.(id) then fail "decreasing %s offsets" what
    done;
    Array.iter (fun v -> if v < 0 || v >= n then fail "%s %d out of range" what v) row
  in
  check_rows "successor" t.succ_off t.succ;
  check_rows "predecessor" t.pred_off t.pred;
  let has_pred v u =
    let found = ref false in
    for k = t.pred_off.(v) to t.pred_off.(v + 1) - 1 do
      if t.pred.(k) = u then found := true
    done;
    !found
  in
  for id = 0 to n - 1 do
    if t.duration.(id) <= 0.0 then fail "non-positive duration";
    for k = t.succ_off.(id) to t.succ_off.(id + 1) - 1 do
      let sid = t.succ.(k) in
      if not (has_pred sid id) then fail "edge %d->%d has no reverse" id sid;
      if t.start.(sid) +. tolerance < t.start.(id) then
        fail "edge %d->%d goes backward in time (%.0f -> %.0f)" id sid t.start.(id)
          t.start.(sid)
    done
  done;
  let seen = Array.make n false in
  Array.iteri
    (fun i id ->
      if id < 0 || id >= n || seen.(id) then fail "order is not a permutation";
      seen.(id) <- true;
      if i > 0 && t.start.(t.order.(i - 1)) > t.start.(id) then
        fail "order is not sorted by start")
    t.order

module Controller = Mcd_cpu.Controller
module Domain = Mcd_domains.Domain
module Freq = Mcd_domains.Freq

type t = {
  name : string;
  label : string;
  doc : string;
  params : string list;
  feedback : bool;
  cooldown_intervals : int;
  create : ?sink:Mcd_obs.Sink.t -> unit -> Controller.t;
}

let make ~name ?label ?(doc = "") ?(params = []) create =
  {
    name;
    label = Option.value label ~default:name;
    doc;
    params;
    feedback = false;
    cooldown_intervals = 0;
    create;
  }

let key_fragment t =
  Mcd_cache.Key.policy_fragment ~name:t.name ~params:t.params

let scaled_domains = [ Domain.Integer; Domain.Floating; Domain.Memory ]

let queue_capacity = function
  | Domain.Integer -> 20.0
  | Domain.Floating -> 15.0
  | Domain.Memory -> 64.0
  | Domain.Front_end -> 16.0

let utilization (s : Controller.sample) d =
  s.Controller.avg_occupancy.(Domain.index d) /. queue_capacity d

type actuator = {
  freq : Domain.t -> int;
  set : Domain.t -> int -> string -> unit;
}

let feedback ~name ?label ~doc ~params ~source ~interval_cycles
    ~cooldown_intervals rule =
  let create ?sink () =
    let cur = Array.make Domain.count Freq.fmax_mhz in
    (* sample intervals left before each domain may change again *)
    let cooldown = Array.make Domain.count 0 in
    let now = ref 0 and changed = ref false in
    let set d f why =
      let i = Domain.index d and f = Freq.clamp f in
      if f <> cur.(i) && cooldown.(i) = 0 then begin
        (match sink with
        | None -> ()
        | Some snk ->
            Mcd_obs.Sink.decision snk ~t_ps:!now ~source
              ~trigger:Mcd_obs.Sink.Sample
              ~detail:
                (Printf.sprintf "%s %s %d->%d MHz" why (Domain.name d) cur.(i)
                   f)
              ());
        cur.(i) <- f;
        cooldown.(i) <- cooldown_intervals;
        changed := true
      end
    in
    let decide = rule { freq = (fun d -> cur.(Domain.index d)); set } in
    let on_sample s ~now:t =
      Array.iteri (fun i v -> if v > 0 then cooldown.(i) <- v - 1) cooldown;
      now := t;
      changed := false;
      decide s;
      if !changed then
        Some
          (Mcd_domains.Reconfig.make ~front_end:Freq.fmax_mhz
             ~integer:cur.(Domain.index Domain.Integer)
             ~floating:cur.(Domain.index Domain.Floating)
             ~memory:cur.(Domain.index Domain.Memory))
      else None
    in
    {
      Controller.name = source;
      on_marker = (fun _ ~now:_ -> Controller.no_reaction);
      on_sample;
      sample_interval_cycles = interval_cycles;
    }
  in
  { (make ~name ?label ~doc ~params create) with feedback = true; cooldown_intervals }

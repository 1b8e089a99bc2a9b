let default_domain_names sink =
  Array.init (Sink.domains sink) (fun i -> Printf.sprintf "d%d" i)

let resolve_names ?domain_names sink =
  match domain_names with
  | Some names when Array.length names = Sink.domains sink -> names
  | Some _ -> invalid_arg "Export: domain_names arity mismatch"
  | None -> default_domain_names sink

(* ------------------------------------------------------------------ *)
(* JSON-lines metrics dump                                            *)
(* ------------------------------------------------------------------ *)

let metrics_jsonl sink =
  let buf = Buffer.create 1024 in
  Metrics.iter
    (fun inst ->
      let obj =
        match inst with
        | Metrics.Counter c ->
            Json.Obj
              [
                ("name", Json.String (Metrics.name inst));
                ("kind", Json.String "counter");
                ("value", Json.Int (Metrics.value c));
              ]
        | Metrics.Gauge g ->
            Json.Obj
              [
                ("name", Json.String (Metrics.name inst));
                ("kind", Json.String "gauge");
                ("value", Json.Float (Metrics.peek g));
              ]
        | Metrics.Histogram h ->
            Json.Obj
              [
                ("name", Json.String (Metrics.name inst));
                ("kind", Json.String "histogram");
                ("bins", Json.Int (Metrics.bins h));
                ( "weights",
                  Json.List
                    (Array.to_list
                       (Array.map (fun w -> Json.Float w) (Metrics.weights h))) );
              ]
      in
      Buffer.add_string buf (Json.to_string obj);
      Buffer.add_char buf '\n')
    (Sink.metrics sink);
  (* Ring-eviction accounting rides along so consumers can tell whether
     the event list is complete. *)
  Buffer.add_string buf
    (Json.to_string
       (Json.Obj
          [
            ("name", Json.String "obs.dropped_events");
            ("kind", Json.String "counter");
            ("value", Json.Int (Sink.dropped_events sink));
          ]));
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* CSV time series                                                    *)
(* ------------------------------------------------------------------ *)

let series_csv ?domain_names sink =
  let names = resolve_names ?domain_names sink in
  let d = Sink.domains sink in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "t_ps,cycles,ipc";
  let per_domain col =
    Array.iter (fun nm -> Buffer.add_string buf (Printf.sprintf ",%s_%s" col nm)) names
  in
  per_domain "mhz";
  per_domain "volt";
  per_domain "occ";
  per_domain "pj";
  Buffer.add_string buf ",pj_external\n";
  Series.iter
    (fun (row : Series.row) ->
      Buffer.add_string buf (Printf.sprintf "%d,%d,%.6f" row.t_ps row.cycles row.ipc);
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%.3f" v)) row.mhz;
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%.4f" v)) row.volt;
      Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf ",%.3f" v)) row.occ;
      for i = 0 to d - 1 do
        Buffer.add_string buf (Printf.sprintf ",%.4f" row.pj.(i))
      done;
      Buffer.add_string buf (Printf.sprintf ",%.4f\n" row.pj.(d)))
    (Sink.series sink);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace-event format                                          *)
(* ------------------------------------------------------------------ *)

let us_of_ps ps = float_of_int ps /. 1e6

let chrome_trace ?domain_names sink =
  let names = resolve_names ?domain_names sink in
  let events = ref [] in
  let emit e = events := e :: !events in
  (* One thread track per clock domain, plus tid = domains for
     cross-domain (whole-setting) events. *)
  Array.iteri
    (fun i nm ->
      emit
        (Json.Obj
           [
             ("ph", Json.String "M");
             ("pid", Json.Int 0);
             ("tid", Json.Int i);
             ("name", Json.String "thread_name");
             ("args", Json.Obj [ ("name", Json.String nm) ]);
           ]))
    names;
  emit
    (Json.Obj
       [
         ("ph", Json.String "M");
         ("pid", Json.Int 0);
         ("tid", Json.Int (Array.length names));
         ("name", Json.String "thread_name");
         ("args", Json.Obj [ ("name", Json.String "controller") ]);
       ]);
  (* Sampled per-domain counter tracks: frequency and occupancy. *)
  Series.iter
    (fun (row : Series.row) ->
      let ts = Json.Float (us_of_ps row.t_ps) in
      Array.iteri
        (fun i nm ->
          emit
            (Json.Obj
               [
                 ("ph", Json.String "C");
                 ("pid", Json.Int 0);
                 ("name", Json.String (Printf.sprintf "freq %s (MHz)" nm));
                 ("ts", ts);
                 ("args", Json.Obj [ ("mhz", Json.Float row.mhz.(i)) ]);
               ]);
          emit
            (Json.Obj
               [
                 ("ph", Json.String "C");
                 ("pid", Json.Int 0);
                 ("name", Json.String (Printf.sprintf "occupancy %s" nm));
                 ("ts", ts);
                 ("args", Json.Obj [ ("occ", Json.Float row.occ.(i)) ]);
               ]))
        names)
    (Sink.series sink);
  (* Structured events as instants. *)
  let setting_json setting =
    Json.List (Array.to_list (Array.map (fun mhz -> Json.Int mhz) setting))
  in
  let instant ~tid ~name ~ts ~args =
    emit
      (Json.Obj
         [
           ("ph", Json.String "i");
           ("s", Json.String "t");
           ("pid", Json.Int 0);
           ("tid", Json.Int tid);
           ("name", Json.String name);
           ("ts", Json.Float (us_of_ps ts));
           ("args", Json.Obj args);
         ])
  in
  let controller_tid = Array.length names in
  List.iter
    (fun ev ->
      match ev with
      | Sink.Reconfig_write { t_ps; before; after; noop } ->
          instant ~tid:controller_tid ~name:"reconfig" ~ts:t_ps
            ~args:
              [
                ("before", setting_json before);
                ("after", setting_json after);
                ("noop", Json.Bool noop);
              ]
      | Sink.Dvfs_retarget { t_ps; domain; before; after } ->
          instant ~tid:domain ~name:"retarget" ~ts:t_ps
            ~args:[ ("before_mhz", Json.Int before); ("after_mhz", Json.Int after) ]
      | Sink.Sync_penalty { t_ps; domain } ->
          instant ~tid:domain ~name:"sync-penalty" ~ts:t_ps ~args:[]
      | Sink.Decision { t_ps; source; trigger; setting; detail } ->
          let args =
            [
              ("source", Json.String source);
              ("trigger", Json.String (Sink.trigger_name trigger));
              ("detail", Json.String detail);
            ]
          in
          let args =
            match setting with
            | Some s -> ("setting", setting_json s) :: args
            | None -> args
          in
          instant ~tid:controller_tid ~name:"decision" ~ts:t_ps ~args
      | Sink.Degraded { t_ps; source; detail } ->
          instant ~tid:controller_tid ~name:"degraded" ~ts:t_ps
            ~args:[ ("source", Json.String source); ("detail", Json.String detail) ])
    (Sink.events sink);
  Json.to_string (Json.Obj [ ("traceEvents", Json.List (List.rev !events)) ])

(* ------------------------------------------------------------------ *)
(* Directory writer                                                   *)
(* ------------------------------------------------------------------ *)

let write_dir ?domain_names ~dir sink =
  let out name contents =
    let path = Filename.concat dir name in
    match Mcd_util.Fs.write_atomic path contents with
    | Ok () -> path
    | Error message -> raise (Sys_error message)
  in
  [
    out "metrics.jsonl" (metrics_jsonl sink);
    out "series.csv" (series_csv ?domain_names sink);
    out "trace.json" (chrome_trace ?domain_names sink);
  ]

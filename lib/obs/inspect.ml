module Stats = Dream_util.Stats

type phase_stat = {
  phase : string;
  samples : int;
  p50_ms : float;
  p95_ms : float;
  max_ms : float;
}

type task_churn = {
  task : int;
  kind : string;
  alloc_changes : int;
  mean_accuracy : float;
  epochs_active : int;
}

type report = {
  dir : string;
  epochs : int;
  spans : int;
  events : int;
  phases : phase_stat list;
  event_counts : (string * int) list;
  counters : (string * int) list;
  noisiest : task_churn list;
  profile : Profile.stat list;
}

let ( let* ) = Result.bind

let read_lines path =
  match open_in path with
  | ic ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    Ok (go [])
  | exception Sys_error msg -> Error (Printf.sprintf "cannot read %s: %s" path msg)

let load_trace path =
  let* lines = read_lines path in
  let* items =
    List.fold_left
      (fun acc (lineno, line) ->
        let* acc = acc in
        let fail msg = Error (Printf.sprintf "%s:%d: %s" path lineno msg) in
        match Result.bind (Json.of_string line) (Json.decode Trace.item_json) with
        | Error msg -> fail msg
        | Ok item -> Ok (item :: acc))
      (Ok [])
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  Ok (List.rev items)

(* metrics.prom: keep the counters ("name_total[{labels}] value" lines),
   strip the dream_ prefix and _total suffix back to registry names.
   Labelled variants of one name are summed. *)
let load_counters path =
  let* lines = read_lines path in
  let strip ~prefix ~suffix s =
    if
      String.length s > String.length prefix + String.length suffix
      && String.sub s 0 (String.length prefix) = prefix
      && String.sub s (String.length s - String.length suffix) (String.length suffix) = suffix
    then
      Some
        (String.sub s (String.length prefix)
           (String.length s - String.length prefix - String.length suffix))
    else None
  in
  let tbl = Hashtbl.create 32 in
  let* () =
    List.fold_left
      (fun acc (lineno, line) ->
        let* () = acc in
        if line = "" || line.[0] = '#' then Ok ()
        else begin
          match String.index_opt line ' ' with
          | None -> Error (Printf.sprintf "%s:%d: expected \"name value\"" path lineno)
          | Some sp ->
            let name = String.sub line 0 sp in
            let value = String.sub line (sp + 1) (String.length line - sp - 1) in
            let name =
              match String.index_opt name '{' with
              | Some b -> String.sub name 0 b
              | None -> name
            in
            (match strip ~prefix:"dream_" ~suffix:"_total" name with
            | None -> Ok () (* gauge or histogram series: not a counter *)
            | Some base -> (
              match int_of_string_opt value with
              | None -> Error (Printf.sprintf "%s:%d: counter %s has non-integer value %S" path lineno base value)
              | Some v ->
                let prev = Option.value ~default:0 (Hashtbl.find_opt tbl base) in
                Hashtbl.replace tbl base (prev + v);
                Ok ()))
        end)
      (Ok ())
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  Ok (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))

type task_acc = {
  t_kind : string;
  mutable t_epochs : int;
  mutable t_acc_sum : float;
  mutable t_changes : int;
  mutable t_last_alloc : int option;
}

let load_tasks path =
  let* lines = read_lines path in
  match lines with
  | [] -> Error (Printf.sprintf "%s: empty file" path)
  | header :: rows ->
    if header <> Telemetry.tasks_csv_header then
      Error (Printf.sprintf "%s: unexpected header %S" path header)
    else begin
      let tbl = Hashtbl.create 32 in
      let* () =
        List.fold_left
          (fun acc (lineno, line) ->
            let* () = acc in
            match String.split_on_char ',' line with
            | [ _epoch; task; kind; accuracy; _satisfied; alloc ] -> (
              match (int_of_string_opt task, float_of_string_opt accuracy, int_of_string_opt alloc)
              with
              | Some task, Some accuracy, Some alloc ->
                let a =
                  match Hashtbl.find_opt tbl task with
                  | Some a -> a
                  | None ->
                    let a =
                      { t_kind = kind; t_epochs = 0; t_acc_sum = 0.0; t_changes = 0;
                        t_last_alloc = None }
                    in
                    Hashtbl.replace tbl task a;
                    a
                in
                a.t_epochs <- a.t_epochs + 1;
                a.t_acc_sum <- a.t_acc_sum +. accuracy;
                (match a.t_last_alloc with
                | Some last when last <> alloc -> a.t_changes <- a.t_changes + 1
                | Some _ | None -> ());
                a.t_last_alloc <- Some alloc;
                Ok ()
              | _ -> Error (Printf.sprintf "%s:%d: malformed row" path lineno))
            | _ -> Error (Printf.sprintf "%s:%d: expected 6 columns" path lineno))
          (Ok ())
          (List.mapi (fun i l -> (i + 2, l)) rows)
      in
      Ok
        (Hashtbl.fold
           (fun task a acc ->
             {
               task;
               kind = a.t_kind;
               alloc_changes = a.t_changes;
               mean_accuracy =
                 (if a.t_epochs = 0 then 0.0 else a.t_acc_sum /. float_of_int a.t_epochs);
               epochs_active = a.t_epochs;
             }
             :: acc)
           tbl [])
    end

(* profile.json is only present when the run profiled; its absence is not
   an error, but a malformed one fails the load like every other artifact. *)
let load_profile path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let* lines = read_lines path in
    let doc = String.concat "\n" lines in
    Result.map_error (Printf.sprintf "%s: %s" path)
      (Result.bind (Json.of_string doc) (Json.decode Profile.stats_json))
  end

let load_report ~top ~dir =
  let* items = load_trace (Filename.concat dir "trace.jsonl") in
  let* counters = load_counters (Filename.concat dir "metrics.prom") in
  let* churn = load_tasks (Filename.concat dir "tasks.csv") in
  let* profile = load_profile (Filename.concat dir "profile.json") in
  (* switches.csv is validated for well-formedness even though the summary
     does not aggregate it yet. *)
  let* _ = read_lines (Filename.concat dir "switches.csv") in
  let epochs = Hashtbl.create 64 in
  let by_phase = Hashtbl.create 8 in
  let event_tbl = Hashtbl.create 16 in
  let spans = ref 0 and events = ref 0 in
  List.iter
    (fun item ->
      match item with
      | Trace.Span { epoch; phase; ms } ->
        incr spans;
        Hashtbl.replace epochs epoch ();
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_phase phase) in
        Hashtbl.replace by_phase phase (ms :: prev)
      | Trace.Event { epoch; name; _ } ->
        incr events;
        Hashtbl.replace epochs epoch ();
        let prev = Option.value ~default:0 (Hashtbl.find_opt event_tbl name) in
        Hashtbl.replace event_tbl name (prev + 1))
    items;
  (* Phases in the control loop's order; those the trace never mentions
     are dropped, unknown ones are appended alphabetically. *)
  let known, unknown =
    Hashtbl.fold (fun phase ms acc -> (phase, ms) :: acc) by_phase []
    |> List.partition (fun (phase, _) -> List.mem phase Trace.phases)
  in
  let ordered =
    List.filter_map
      (fun phase -> List.find_opt (fun (p, _) -> p = phase) known)
      Trace.phases
    @ List.sort compare unknown
  in
  let phases =
    List.map
      (fun (phase, ms) ->
        {
          phase;
          samples = List.length ms;
          p50_ms = Stats.percentile 50.0 ms;
          p95_ms = Stats.percentile 95.0 ms;
          max_ms = Stats.maximum ms;
        })
      ordered
  in
  let event_counts =
    Hashtbl.fold (fun name n acc -> (name, n) :: acc) event_tbl []
    |> List.sort (fun (na, a) (nb, b) -> compare (b, na) (a, nb))
  in
  let noisiest =
    let sorted =
      List.sort
        (fun a b -> compare (b.alloc_changes, a.task) (a.alloc_changes, b.task))
        churn
    in
    List.filteri (fun i _ -> i < top) sorted
  in
  Ok
    {
      dir;
      epochs = Hashtbl.length epochs;
      spans = !spans;
      events = !events;
      phases;
      event_counts;
      counters;
      noisiest;
      profile;
    }

let load ?(top = 5) dir = load_report ~top ~dir

let pp ~robustness ppf r =
  Format.fprintf ppf "telemetry %s: %d epochs, %d spans, %d events@." r.dir r.epochs r.spans
    r.events;
  if r.phases <> [] then begin
    Format.fprintf ppf "@.phase latency (ms):@.";
    Format.fprintf ppf "  %-10s %8s %10s %10s %10s@." "phase" "samples" "p50" "p95" "max";
    List.iter
      (fun p ->
        Format.fprintf ppf "  %-10s %8d %10.3f %10.3f %10.3f@." p.phase p.samples p.p50_ms
          p.p95_ms p.max_ms)
      r.phases
  end;
  if r.event_counts <> [] then begin
    Format.fprintf ppf "@.events:@.";
    List.iter (fun (name, n) -> Format.fprintf ppf "  %-20s %6d@." name n) r.event_counts
  end;
  let rob = List.filter (fun (k, _) -> List.mem k robustness) r.counters in
  if List.exists (fun (_, v) -> v > 0) rob then begin
    Format.fprintf ppf "@.robustness counters:@.";
    List.iter
      (fun name ->
        match List.assoc_opt name r.counters with
        | Some v when v > 0 -> Format.fprintf ppf "  %-22s %6d@." name v
        | Some _ | None -> ())
      robustness
  end;
  (match List.assoc_opt "allocation_changes" r.counters with
  | Some v -> Format.fprintf ppf "@.allocation churn: %d per-switch allocation changes@." v
  | None -> ());
  if r.noisiest <> [] then begin
    Format.fprintf ppf "@.noisiest tasks (allocation changes):@.";
    List.iter
      (fun c ->
        Format.fprintf ppf "  task %-4d %-4s %4d changes over %4d epochs, mean accuracy %.2f@."
          c.task c.kind c.alloc_changes c.epochs_active c.mean_accuracy)
      r.noisiest
  end;
  if r.profile <> [] then begin
    Format.fprintf ppf "@.profile (wall + GC per span path):@.";
    Format.fprintf ppf "  %-24s %8s %12s %14s %14s %8s %8s@." "span" "count" "wall_ms"
      "minor_words" "major_words" "minor#" "major#";
    List.iter
      (fun (s : Profile.stat) ->
        Format.fprintf ppf "  %-24s %8d %12.3f %14.0f %14.0f %8d %8d@." s.Profile.path
          s.Profile.count s.Profile.wall_ms s.Profile.gc.Gc_stats.minor_words
          s.Profile.gc.Gc_stats.major_words s.Profile.gc.Gc_stats.minor_collections
          s.Profile.gc.Gc_stats.major_collections)
      r.profile
  end

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
  modelled : phase_stat list;
  measured : phase_stat list;
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

(* Fold [f] over [lines], the first numbered [first]; the first error fails
   the load at its file and line. *)
let fold_lines path ~first f init lines =
  let rec go acc lineno = function
    | [] -> Ok acc
    | line :: rest -> (
      match f acc line with
      | Ok acc -> go acc (lineno + 1) rest
      | Error msg -> Error (Printf.sprintf "%s:%d: %s" path lineno msg))
  in
  go init first lines

let load_trace path =
  let* lines = read_lines path in
  let* items =
    fold_lines path ~first:1
      (fun acc line ->
        Result.map (fun item -> item :: acc)
          (Result.bind (Json.of_string line) (Json.decode Trace.item_json)))
      [] lines
  in
  Ok (List.rev items)

(* metrics.prom: keep the counters ("name_total[{labels}] value" lines),
   strip the dream_ prefix and _total suffix back to registry names.
   Labelled variants of one name are summed. *)
let load_counters path =
  let* lines = read_lines path in
  let tbl = Hashtbl.create 32 in
  let* () =
    fold_lines path ~first:1
      (fun () line ->
        if line = "" || line.[0] = '#' then Ok ()
        else
          match String.index_opt line ' ' with
          | None -> Error "expected \"name value\""
          | Some sp -> (
            let name = String.sub line 0 sp in
            let value = String.sub line (sp + 1) (String.length line - sp - 1) in
            let name =
              match String.index_opt name '{' with Some b -> String.sub name 0 b | None -> name
            in
            let n = String.length name in
            let counter = n > 12 && String.starts_with ~prefix:"dream_" name in
            if not (counter && String.ends_with ~suffix:"_total" name) then
              Ok () (* gauge or histogram series: not a counter *)
            else
              let base = String.sub name 6 (n - 12) in
              match int_of_string_opt value with
              | None -> Error (Printf.sprintf "counter %s has non-integer value %S" base value)
              | Some v ->
                Hashtbl.replace tbl base (v + Option.value ~default:0 (Hashtbl.find_opt tbl base));
                Ok ()))
      () lines
  in
  Ok (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))

(* A CSV artifact: [header], then rows of six cells that [row] reads. *)
let load_csv path ~header row =
  let* lines = read_lines path in
  match lines with
  | [] -> Error (Printf.sprintf "%s: empty file" path)
  | first :: _ when first <> header -> Error (Printf.sprintf "%s: unexpected header %S" path first)
  | _ :: rows ->
    fold_lines path ~first:2
      (fun () line ->
        let cells = String.split_on_char ',' line in
        if List.length cells <> 6 then Error "expected 6 columns"
        else if row cells then Ok ()
        else Error "malformed row")
      () rows

type task_acc = {
  t_kind : string;
  mutable t_epochs : int;
  mutable t_acc_sum : float;
  mutable t_changes : int;
  mutable t_last_alloc : int option;
}

let load_tasks path =
  let tbl = Hashtbl.create 32 in
  let* () =
    load_csv path ~header:Telemetry.tasks_csv_header (function
      | [ _epoch; task; kind; accuracy; _satisfied; alloc ] -> (
        match (int_of_string_opt task, float_of_string_opt accuracy, int_of_string_opt alloc) with
        | Some task, Some accuracy, Some alloc ->
          let a =
            match Hashtbl.find_opt tbl task with
            | Some a -> a
            | None ->
              let a =
                { t_kind = kind; t_epochs = 0; t_acc_sum = 0.0; t_changes = 0; t_last_alloc = None }
              in
              Hashtbl.replace tbl task a;
              a
          in
          a.t_epochs <- a.t_epochs + 1;
          a.t_acc_sum <- a.t_acc_sum +. accuracy;
          if Option.fold ~none:false ~some:(( <> ) alloc) a.t_last_alloc then
            a.t_changes <- a.t_changes + 1;
          a.t_last_alloc <- Some alloc;
          true
        | _ -> false)
      | _ -> false)
  in
  Ok
    (Hashtbl.fold
       (fun task a acc ->
         {
           task;
           kind = a.t_kind;
           alloc_changes = a.t_changes;
           mean_accuracy = (if a.t_epochs = 0 then 0.0 else a.t_acc_sum /. float_of_int a.t_epochs);
           epochs_active = a.t_epochs;
         }
         :: acc)
       tbl [])

(* switches.csv is validated for well-formedness even though the summary
   does not aggregate it yet. *)
let load_switches path =
  load_csv path ~header:Telemetry.switches_csv_header
    (List.for_all (fun c -> Option.is_some (int_of_string_opt c)))

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

let load ?(top = 5) dir =
  let* items = load_trace (Filename.concat dir "trace.jsonl") in
  let* counters = load_counters (Filename.concat dir "metrics.prom") in
  let* churn = load_tasks (Filename.concat dir "tasks.csv") in
  let* profile = load_profile (Filename.concat dir "profile.json") in
  let* () = load_switches (Filename.concat dir "switches.csv") in
  (* Epochs are counted from spans alone: every tick writes them, while
     the events of finalize carry the epoch after the last tick. *)
  let epochs = Hashtbl.create 64 and event_tbl = Hashtbl.create 16 in
  List.iter
    (function
      | Trace.Span { epoch; _ } -> Hashtbl.replace epochs epoch ()
      | Trace.Event { name; _ } ->
        let n = Option.value ~default:0 (Hashtbl.find_opt event_tbl name) in
        Hashtbl.replace event_tbl name (n + 1))
    items;
  let spans =
    List.filter_map
      (function Trace.Span { phase; ms; _ } -> Some (phase, ms) | Trace.Event _ -> None)
      items
  in
  (* Phases in the order the trace first mentions them. *)
  let modelled, measured =
    List.fold_left (fun seen (p, _) -> if List.mem p seen then seen else p :: seen) [] spans
    |> List.rev_map (fun phase ->
           let ms = List.filter_map (fun (p, ms) -> if p = phase then Some ms else None) spans in
           {
             phase;
             samples = List.length ms;
             p50_ms = Stats.percentile 50.0 ms;
             p95_ms = Stats.percentile 95.0 ms;
             max_ms = Stats.maximum ms;
           })
    |> List.partition (fun p -> String.starts_with ~prefix:"model/" p.phase)
  in
  let event_counts =
    Hashtbl.fold (fun name n acc -> (name, n) :: acc) event_tbl []
    |> List.sort (fun (na, a) (nb, b) -> compare (b, na) (a, nb))
  in
  let noisiest =
    List.sort (fun a b -> compare (b.alloc_changes, a.task) (a.alloc_changes, b.task)) churn
    |> List.filteri (fun i _ -> i < top)
  in
  Ok
    {
      dir;
      epochs = Hashtbl.length epochs;
      spans = List.length spans;
      events = List.length items - List.length spans;
      modelled;
      measured;
      event_counts;
      counters;
      noisiest;
      profile;
    }

let pp ~robustness ppf r =
  Format.fprintf ppf "telemetry %s: %d epochs, %d spans, %d events@." r.dir r.epochs r.spans
    r.events;
  let table heading phases =
    if phases <> [] then begin
      Format.fprintf ppf "@.%s:@." heading;
      Format.fprintf ppf "  %-18s %8s %10s %10s %10s@." "phase" "samples" "p50" "p95" "max";
      List.iter
        (fun p ->
          Format.fprintf ppf "  %-18s %8d %10.3f %10.3f %10.3f@." p.phase p.samples p.p50_ms
            p.p95_ms p.max_ms)
        phases
    end
  in
  table "modelled switch time (ms)" r.modelled;
  table "measured controller time (ms)" r.measured;
  if r.event_counts <> [] then begin
    Format.fprintf ppf "@.events:@.";
    List.iter (fun (name, n) -> Format.fprintf ppf "  %-20s %6d@." name n) r.event_counts
  end;
  let rob =
    List.filter_map
      (fun name ->
        match List.assoc_opt name r.counters with Some v when v > 0 -> Some (name, v) | _ -> None)
      robustness
  in
  if rob <> [] then begin
    Format.fprintf ppf "@.robustness counters:@.";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-22s %6d@." name v) rob
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

module C = Dream_util.Codec
module Switch_id = Dream_traffic.Switch_id
module Topology = Dream_traffic.Topology
module Task_spec = Dream_tasks.Task_spec

type end_cause = Completed | Dropped

type entry =
  | Admit of {
      epoch : int;
      task_id : int;
      spec : Task_spec.t;
      topology : Topology.t;
      duration : int;
      source : string;
    }
  | Reject of { epoch : int; task_id : int; kind : Task_spec.kind }
  | Alloc of { epoch : int; task_id : int; switch : Switch_id.t; alloc : int }
  | Switch_down of { epoch : int; switch : Switch_id.t }
  | Switch_up of { epoch : int; switch : Switch_id.t }
  | Task_end of {
      epoch : int;
      task_id : int;
      kind : Task_spec.kind;
      cause : end_cause;
      arrived_at : int;
      active_epochs : int;
      satisfaction : float;
      mean_accuracy : float;
    }

let entry_name = function
  | Admit _ -> "admit"
  | Reject _ -> "reject"
  | Alloc _ -> "alloc"
  | Switch_down _ -> "switch_down"
  | Switch_up _ -> "switch_up"
  | Task_end _ -> "task_end"

let codec =
  let open C in
  let other () = invalid_arg "Journal: a field of another kind of entry" in
  let epoch =
    field (int "epoch") (function
      | Admit { epoch; _ }
      | Reject { epoch; _ }
      | Alloc { epoch; _ }
      | Switch_down { epoch; _ }
      | Switch_up { epoch; _ }
      | Task_end { epoch; _ } ->
        epoch)
  in
  let task_id =
    field (int "task_id") (function
      | Admit { task_id; _ }
      | Reject { task_id; _ }
      | Alloc { task_id; _ }
      | Task_end { task_id; _ } ->
        task_id
      | Switch_down _ | Switch_up _ -> other ())
  in
  let switch =
    field (int "switch") (function
      | Alloc { switch; _ } | Switch_down { switch; _ } | Switch_up { switch; _ } -> switch
      | Admit _ | Reject _ | Task_end _ -> other ())
  in
  let kind =
    field Task_spec.kind_codec (function
      | Reject { kind; _ } | Task_end { kind; _ } -> kind
      | Admit _ | Alloc _ | Switch_down _ | Switch_up _ -> other ())
  in
  (* The serialized source is itself a multi-line document; escaping folds
     it onto the journal's one-line-per-field grid. *)
  let source =
    conv
      (fun escaped ->
        try Scanf.unescaped escaped
        with Scanf.Scan_failure _ | Failure _ -> refuse "admit entry: undecodable source blob")
      String.escaped (string "source")
  in
  let entry name fields =
    case name (record fields) Fun.id (fun e -> if entry_name e = name then Some e else None)
  in
  cases ~what:"journal entry"
    [
      (* Tasks drop in arrival order: the drop priority line holds the
         task's id. *)
      entry "admit"
        (let* epoch, task_id = (let+ epoch = epoch and+ task_id = task_id in (epoch, task_id)) in
         let+ duration = field (int "duration") (function Admit a -> a.duration | _ -> other ())
         and+ () = field (constant (int "drop_priority") task_id) ignore
         and+ spec = field Task_spec.codec (function Admit a -> a.spec | _ -> other ())
         and+ topology = field Topology.codec (function Admit a -> a.topology | _ -> other ())
         and+ source = field source (function Admit a -> a.source | _ -> other ()) in
         Admit { epoch; task_id; spec; topology; duration; source });
      entry "reject"
        (let+ epoch = epoch and+ task_id = task_id and+ kind = kind in
         Reject { epoch; task_id; kind });
      entry "alloc"
        (let+ epoch = epoch
         and+ task_id = task_id
         and+ switch = switch
         and+ alloc = field (int "alloc") (function Alloc a -> a.alloc | _ -> other ()) in
         Alloc { epoch; task_id; switch; alloc });
      entry "switch_down"
        (let+ epoch = epoch and+ switch = switch in
         Switch_down { epoch; switch });
      entry "switch_up"
        (let+ epoch = epoch and+ switch = switch in
         Switch_up { epoch; switch });
      entry "task_end"
        (let+ epoch = epoch
         and+ task_id = task_id
         and+ kind = kind
         and+ cause =
           field
             (enum ~what:"end cause" "cause" [ (Completed, "completed"); (Dropped, "dropped") ])
             (function Task_end e -> e.cause | _ -> other ())
         and+ arrived_at =
           field (int "arrived_at") (function Task_end e -> e.arrived_at | _ -> other ())
         and+ active_epochs =
           field (int "active_epochs") (function Task_end e -> e.active_epochs | _ -> other ())
         and+ satisfaction =
           field (float "satisfaction") (function Task_end e -> e.satisfaction | _ -> other ())
         and+ mean_accuracy =
           field (float "mean_accuracy") (function Task_end e -> e.mean_accuracy | _ -> other ())
         in
         Task_end
           { epoch; task_id; kind; cause; arrived_at; active_epochs; satisfaction; mean_accuracy });
    ]

let entry_to_string e = C.encode codec e

let entries_of_string s =
  (* Every encoded line ends in '\n', so bytes after the last newline can
     only be a torn final append.  Drop them before parsing: a truncated
     value line ("0x1.9p-1" cut to "0x1.9") would otherwise still parse,
     silently recovering a corrupted value instead of dropping the torn
     entry. *)
  let s =
    match String.rindex_opt s '\n' with
    | Some i when i < String.length s - 1 -> String.sub s 0 (i + 1)
    | Some _ -> s
    | None -> ""
  in
  (* Only a final entry that runs out of lines is a torn append; a refused
     value is corruption wherever it sits. *)
  match C.decode_sequence codec s with
  | entries -> Ok entries
  | exception C.Parse_error err -> Error (C.error_to_string err)
  | exception Invalid_argument msg -> Error ("invalid value: " ^ msg)

(* ---- sinks ---- *)

type backing = Memory | File of { path : string; mutable oc : out_channel }

type sink = {
  mutable entries_rev : entry list;
  mutable count : int;
  backing : backing;
  mutable closed : bool;
}

let memory () = { entries_rev = []; count = 0; backing = Memory; closed = false }

let file path =
  { entries_rev = []; count = 0; backing = File { path; oc = open_out path }; closed = false }

let check_open t op =
  if t.closed then invalid_arg (Printf.sprintf "Journal.%s: sink is closed" op)

let append t e =
  check_open t "append";
  t.entries_rev <- e :: t.entries_rev;
  t.count <- t.count + 1;
  match t.backing with
  | Memory -> ()
  | File f ->
    output_string f.oc (entry_to_string e);
    flush f.oc

let entries t = List.rev t.entries_rev

let length t = t.count

let flush t =
  check_open t "flush";
  match t.backing with Memory -> () | File f -> flush f.oc

let truncate t =
  check_open t "truncate";
  t.entries_rev <- [];
  t.count <- 0;
  match t.backing with
  | Memory -> ()
  | File f ->
    close_out f.oc;
    f.oc <- open_out f.path

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.backing with Memory -> () | File f -> close_out f.oc
  end

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
      drop_priority : int;
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

let cause_to_string = function Completed -> "completed" | Dropped -> "dropped"

let cause_of_string = function
  | "completed" -> Some Completed
  | "dropped" -> Some Dropped
  | _ -> None

let encode w = function
  | Admit { epoch; task_id; spec; topology; duration; drop_priority; source } ->
    C.section w "admit";
    C.int w "epoch" epoch;
    C.int w "task_id" task_id;
    C.int w "duration" duration;
    C.int w "drop_priority" drop_priority;
    Task_spec.emit w spec;
    Topology.emit w topology;
    (* The serialized source is itself a multi-line document; escaping
       folds it onto the journal's one-line-per-field grid. *)
    C.string w "source" (String.escaped source)
  | Reject { epoch; task_id; kind } ->
    C.section w "reject";
    C.int w "epoch" epoch;
    C.int w "task_id" task_id;
    C.string w "kind" (Task_spec.kind_to_string kind)
  | Alloc { epoch; task_id; switch; alloc } ->
    C.section w "alloc";
    C.int w "epoch" epoch;
    C.int w "task_id" task_id;
    C.int w "switch" switch;
    C.int w "alloc" alloc
  | Switch_down { epoch; switch } ->
    C.section w "switch_down";
    C.int w "epoch" epoch;
    C.int w "switch" switch
  | Switch_up { epoch; switch } ->
    C.section w "switch_up";
    C.int w "epoch" epoch;
    C.int w "switch" switch
  | Task_end { epoch; task_id; kind; cause; arrived_at; active_epochs; satisfaction;
               mean_accuracy } ->
    C.section w "task_end";
    C.int w "epoch" epoch;
    C.int w "task_id" task_id;
    C.string w "kind" (Task_spec.kind_to_string kind);
    C.string w "cause" (cause_to_string cause);
    C.int w "arrived_at" arrived_at;
    C.int w "active_epochs" active_epochs;
    C.float w "satisfaction" satisfaction;
    C.float w "mean_accuracy" mean_accuracy

let kind_field r =
  let s = C.string_field r "kind" in
  match Task_spec.kind_of_string s with
  | Some k -> k
  | None -> C.parse_error 0 (Printf.sprintf "unknown task kind %S" s)

let decode r =
  match C.peek_section r with
  | None -> C.parse_error 0 "expected a journal entry section"
  | Some name ->
    C.expect_section r name;
    (match name with
    | "admit" ->
      let epoch = C.int_field r "epoch" in
      let task_id = C.int_field r "task_id" in
      let duration = C.int_field r "duration" in
      let drop_priority = C.int_field r "drop_priority" in
      let spec = Task_spec.parse r in
      let topology = Topology.parse r in
      let source =
        let escaped = C.string_field r "source" in
        try Scanf.unescaped escaped
        with Scanf.Scan_failure _ | Failure _ ->
          C.parse_error 0 "admit entry: undecodable source blob"
      in
      Admit { epoch; task_id; spec; topology; duration; drop_priority; source }
    | "reject" ->
      let epoch = C.int_field r "epoch" in
      let task_id = C.int_field r "task_id" in
      let kind = kind_field r in
      Reject { epoch; task_id; kind }
    | "alloc" ->
      let epoch = C.int_field r "epoch" in
      let task_id = C.int_field r "task_id" in
      let switch = C.int_field r "switch" in
      let alloc = C.int_field r "alloc" in
      Alloc { epoch; task_id; switch; alloc }
    | "switch_down" ->
      let epoch = C.int_field r "epoch" in
      let switch = C.int_field r "switch" in
      Switch_down { epoch; switch }
    | "switch_up" ->
      let epoch = C.int_field r "epoch" in
      let switch = C.int_field r "switch" in
      Switch_up { epoch; switch }
    | "task_end" ->
      let epoch = C.int_field r "epoch" in
      let task_id = C.int_field r "task_id" in
      let kind = kind_field r in
      let cause =
        let s = C.string_field r "cause" in
        match cause_of_string s with
        | Some c -> c
        | None -> C.parse_error 0 (Printf.sprintf "unknown end cause %S" s)
      in
      let arrived_at = C.int_field r "arrived_at" in
      let active_epochs = C.int_field r "active_epochs" in
      let satisfaction = C.float_field r "satisfaction" in
      let mean_accuracy = C.float_field r "mean_accuracy" in
      Task_end { epoch; task_id; kind; cause; arrived_at; active_epochs; satisfaction;
                 mean_accuracy }
    | other -> C.parse_error 0 (Printf.sprintf "unknown journal entry [%s]" other))

let entry_to_string e =
  let w = C.writer () in
  encode w e;
  C.contents w

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
  let r = C.reader_of_string s in
  let rec go acc =
    if C.at_end r then Ok (List.rev acc)
    else begin
      match decode r with
      | e -> go (e :: acc)
      (* A complete line whose value a component refuses (partial lines
         never get here), so corruption wherever it sits. *)
      | exception Invalid_argument msg -> Error ("invalid value: " ^ msg)
      | exception C.Parse_error err ->
        (* Only an incomplete *final* entry is forgivable: it means the
           writer died mid-append.  Anything with entries after it is
           corruption. *)
        let rec rest_has_section () =
          if C.at_end r then false
          else if C.peek_section r <> None then true
          else begin
            C.skip_line r;
            rest_has_section ()
          end
        in
        if rest_has_section () then Error (C.error_to_string err) else Ok (List.rev acc)
    end
  in
  go []

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

type direction = Lower_better | Higher_better | Info

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_direction : direction;
  m_tolerance_pct : float option;
}

type t = {
  figure : string;
  quick : bool;
  seeds : int list;
  metrics : metric list;
  phases : Profile.stat list;
}

let version = 1

let metric ?(unit_ = "") ?(direction = Info) ?tolerance_pct name value =
  { m_name = name; m_value = value; m_unit = unit_; m_direction = direction;
    m_tolerance_pct = tolerance_pct }

let make ~figure ~quick ?(seeds = []) ?(metrics = []) ?(phases = []) () =
  { figure; quick; seeds; metrics; phases }

let filename figure =
  let b = Bytes.of_string figure in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
      | _ -> Bytes.set b i '_')
    b;
  "BENCH_" ^ Bytes.to_string b ^ ".json"

let validate t =
  let seen = Hashtbl.create 16 in
  let rec metrics = function
    | [] -> Ok ()
    | m :: rest ->
      if not (Float.is_finite m.m_value) then
        Error (Printf.sprintf "metric %S: value is not finite" m.m_name)
      else if Hashtbl.mem seen m.m_name then
        Error (Printf.sprintf "metric %S appears twice" m.m_name)
      else begin
        match m.m_tolerance_pct with
        | Some tol when (not (Float.is_finite tol)) || tol < 0.0 ->
          Error (Printf.sprintf "metric %S: tolerance must be finite and non-negative" m.m_name)
        | Some _ | None ->
          Hashtbl.replace seen m.m_name ();
          metrics rest
      end
  in
  let rec phases = function
    | [] -> Ok ()
    | (p : Profile.stat) :: rest ->
      if not (Float.is_finite p.Profile.wall_ms) then
        Error (Printf.sprintf "phase %S: wall_ms is not finite" p.Profile.path)
      else if
        not
          (Float.is_finite p.Profile.gc.Gc_stats.minor_words
          && Float.is_finite p.Profile.gc.Gc_stats.promoted_words
          && Float.is_finite p.Profile.gc.Gc_stats.major_words)
      then Error (Printf.sprintf "phase %S: GC words are not finite" p.Profile.path)
      else phases rest
  in
  if t.figure = "" then Error "figure id must not be empty"
  else Result.bind (metrics t.metrics) (fun () -> phases t.phases)

(* ---- emission ---- *)

let direction_to_string = function
  | Lower_better -> "lower"
  | Higher_better -> "higher"
  | Info -> "info"

let direction_of_string = function
  | "lower" -> Ok Lower_better
  | "higher" -> Ok Higher_better
  | "info" -> Ok Info
  | other -> Error (Printf.sprintf "unknown direction %S" other)

let metric_to_json m =
  let base =
    [
      ("name", Json.Str m.m_name);
      ("value", Json.Float m.m_value);
      ("unit", Json.Str m.m_unit);
      ("direction", Json.Str (direction_to_string m.m_direction));
    ]
  in
  match m.m_tolerance_pct with
  | None -> Json.Obj base
  | Some tol -> Json.Obj (base @ [ ("tolerance_pct", Json.Float tol) ])

let to_json t =
  Json.Obj
    [
      ("version", Json.Int version);
      ("figure", Json.Str t.figure);
      ("quick", Json.Bool t.quick);
      ("seeds", Json.List (List.map (fun s -> Json.Int s) t.seeds));
      ("metrics", Json.List (List.map metric_to_json t.metrics));
      ("phases", Profile.stats_to_json t.phases);
    ]

(* ---- parsing ---- *)

let ( let* ) = Result.bind

let field name conv j =
  match Json.member name j with
  | Some v -> (
    match conv v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "snapshot: field %S has the wrong type" name))
  | None -> Error (Printf.sprintf "snapshot: missing field %S" name)

let to_bool = function Json.Bool b -> Some b | _ -> None

let metric_of_json j =
  let* name = field "name" Json.to_str j in
  let* value = field "value" Json.to_float j in
  let* unit_ = field "unit" Json.to_str j in
  let* dir = field "direction" Json.to_str j in
  let* direction = direction_of_string dir in
  let* tolerance_pct =
    match Json.member "tolerance_pct" j with
    | None -> Ok None
    | Some v -> (
      match Json.to_float v with
      | Some tol -> Ok (Some tol)
      | None -> Error (Printf.sprintf "metric %S: tolerance_pct has the wrong type" name))
  in
  Ok { m_name = name; m_value = value; m_unit = unit_; m_direction = direction;
       m_tolerance_pct = tolerance_pct }

let list_of name conv j =
  match Json.member name j with
  | Some (Json.List items) ->
    List.fold_left
      (fun acc item ->
        let* rev = acc in
        let* x = conv item in
        Ok (x :: rev))
      (Ok []) items
    |> Result.map List.rev
  | Some _ -> Error (Printf.sprintf "snapshot: field %S must be a list" name)
  | None -> Error (Printf.sprintf "snapshot: missing field %S" name)

let of_json j =
  let* v = field "version" Json.to_int j in
  let* () =
    if v = version then Ok ()
    else Error (Printf.sprintf "snapshot: version %d, this reader understands %d" v version)
  in
  let* figure = field "figure" Json.to_str j in
  let* quick = field "quick" to_bool j in
  let* seeds =
    list_of "seeds" (fun s ->
        match Json.to_int s with Some i -> Ok i | None -> Error "snapshot: seeds must be integers")
      j
  in
  let* metrics = list_of "metrics" metric_of_json j in
  let* phases =
    match Json.member "phases" j with
    | Some p -> Profile.stats_of_json p
    | None -> Error "snapshot: missing field \"phases\""
  in
  let t = { figure; quick; seeds; metrics; phases } in
  let* () = validate t in
  Ok t

(* ---- files ---- *)

(* Create the snapshot directory on demand so a fresh --snapshot-dir works
   without a separate mkdir; a path component that exists as a non-directory
   surfaces as the open_out error below. *)
let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write t ~dir =
  let* () = validate t in
  mkdir_p dir;
  let path = Filename.concat dir (filename t.figure) in
  try
    let oc = open_out path in
    output_string oc (Json.to_string (to_json t));
    output_char oc '\n';
    close_out oc;
    Ok path
  with Sys_error msg -> Error (Printf.sprintf "cannot write snapshot %s: %s" path msg)

let read path =
  match open_in_bin path with
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Result.map_error (Printf.sprintf "%s: %s" path)
      (Result.bind (Json.of_string (String.trim s)) of_json)
  | exception Sys_error msg -> Error (Printf.sprintf "cannot read snapshot %s: %s" path msg)

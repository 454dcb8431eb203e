type direction = Lower_better | Higher_better | Info

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_direction : direction;
}

type t = {
  figure : string;
  quick : bool;
  seeds : int list;
  metrics : metric list;
  phases : Profile.stat list;
}

let version = 2

let metric ?(unit_ = "") ?(direction = Info) name value =
  { m_name = name; m_value = value; m_unit = unit_; m_direction = direction }

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

(* ---- codec ---- *)

let direction_to_string = function
  | Lower_better -> "lower"
  | Higher_better -> "higher"
  | Info -> "info"

let metric_json =
  let open Dream_util.Codec in
  let direction =
    enum ~what:"direction" "direction"
      (List.map (fun d -> (d, direction_to_string d)) [ Lower_better; Higher_better; Info ])
  in
  record
    (let+ m_name = field (string "name") (fun m -> m.m_name)
     and+ m_value = field (float "value") (fun m -> m.m_value)
     and+ m_unit = field (string "unit") (fun m -> m.m_unit)
     and+ m_direction = field direction (fun m -> m.m_direction) in
     { m_name; m_value; m_unit; m_direction })

let json =
  let open Dream_util.Codec in
  record
    (let+ () = field (constant (int "version") version) ignore
     and+ figure = field (string "figure") (fun t -> t.figure)
     and+ quick = field (bool "quick") (fun t -> t.quick)
     and+ seeds = field (repeat "seeds" (int "seed")) (fun t -> t.seeds)
     and+ metrics = field (repeat "metrics" metric_json) (fun t -> t.metrics)
     and+ phases = field Profile.stats_json (fun t -> t.phases) in
     let t = { figure; quick; seeds; metrics; phases } in
     match validate t with Ok () -> t | Error e -> refuse e)

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
  Result.bind (validate t) (fun () ->
      mkdir_p dir;
      let path = Filename.concat dir (filename t.figure) in
      try
        let oc = open_out path in
        output_string oc (Json.to_string (Json.encode json t));
        output_char oc '\n';
        close_out oc;
        Ok path
      with Sys_error msg -> Error (Printf.sprintf "cannot write snapshot %s: %s" path msg))

let read path =
  match open_in_bin path with
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Result.map_error (Printf.sprintf "%s: %s" path)
      (Result.bind (Json.of_string (String.trim s)) (Json.decode json))
  | exception Sys_error msg -> Error (Printf.sprintf "cannot read snapshot %s: %s" path msg)

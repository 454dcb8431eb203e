module Json = Dream_obs.Json

type severity = Error | Warning

type t = {
  rule : string;
  file : string;
  line : int;
  col : int;
  severity : severity;
  message : string;
}

let v ~rule ~file ~line ~col ~severity message = { rule; file; line; col; severity; message }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let severity_to_string = function Error -> "error" | Warning -> "warning"

let severity_of_string = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | _ -> None

let pp ppf t =
  Format.fprintf ppf "%s:%d:%d: %s [%s] %s" t.file t.line t.col
    (severity_to_string t.severity)
    t.rule t.message

let to_json t =
  Json.Obj
    [
      ("rule", Json.Str t.rule);
      ("file", Json.Str t.file);
      ("line", Json.Int t.line);
      ("col", Json.Int t.col);
      ("severity", Json.Str (severity_to_string t.severity));
      ("message", Json.Str t.message);
    ]

let of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str in
  let int k = Option.bind (Json.member k j) Json.to_int in
  let field k = function Some v -> Ok v | None -> Error ("finding: bad field " ^ k) in
  let ( let* ) = Result.bind in
  let* rule = field "rule" (str "rule") in
  let* file = field "file" (str "file") in
  let* line = field "line" (int "line") in
  let* col = field "col" (int "col") in
  let* severity = field "severity" (Option.bind (str "severity") severity_of_string) in
  let* message = field "message" (str "message") in
  Ok { rule; file; line; col; severity; message }

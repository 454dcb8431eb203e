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

let pp ppf t =
  Format.fprintf ppf "%s:%d:%d: %s [%s] %s" t.file t.line t.col
    (severity_to_string t.severity)
    t.rule t.message

let json =
  let severity =
    Json.conv
      (function
        | "error" -> Error
        | "warning" -> Warning
        | s -> Json.refuse (Printf.sprintf "unknown severity %S" s))
      severity_to_string Json.string
  in
  Json.(
    record
      (let+ rule = field "rule" string (fun f -> f.rule)
       and+ file = field "file" string (fun f -> f.file)
       and+ line = field "line" int (fun f -> f.line)
       and+ col = field "col" int (fun f -> f.col)
       and+ severity = field "severity" severity (fun f -> f.severity)
       and+ message = field "message" string (fun f -> f.message) in
       { rule; file; line; col; severity; message }))

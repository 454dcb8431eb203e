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
  (* [line] is also a field of [Codec.error]. *)
  let line f = f.line in
  let open Dream_util.Codec in
  record
    (let+ rule = field (string "rule") (fun f -> f.rule)
     and+ file = field (string "file") (fun f -> f.file)
     and+ line = field (int "line") line
     and+ col = field (int "col") (fun f -> f.col)
     and+ severity =
       field
         (enum ~what:"severity" "severity"
            (List.map (fun s -> (s, severity_to_string s)) [ Error; Warning ]))
         (fun f -> f.severity)
     and+ message = field (string "message") (fun f -> f.message) in
     { rule; file; line; col; severity; message })

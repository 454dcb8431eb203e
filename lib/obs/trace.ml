type field = Int of int | Float of float | Str of string

type item =
  | Span of { epoch : int; phase : string; ms : float }
  | Event of { epoch : int; name : string; fields : (string * field) list }

type t = { mutable rev_items : item list; mutable count : int }

let create () = { rev_items = []; count = 0 }

let push t item =
  t.rev_items <- item :: t.rev_items;
  t.count <- t.count + 1

let span t ~epoch ~phase ~ms = push t (Span { epoch; phase; ms })

let reserved = [ "t"; "epoch"; "name" ]

let event t ~epoch ~name fields =
  List.iter
    (fun (k, _) ->
      if List.mem k reserved then
        invalid_arg (Printf.sprintf "Trace.event: reserved field key %S" k))
    fields;
  push t (Event { epoch; name; fields })

let items t = List.rev t.rev_items

let length t = t.count

(* An event field is whichever scalar its member holds. *)
let field_json =
  Json.conv
    (function
      | Json.Int i -> Int i
      | Json.Float f -> Float f
      | Json.Str s -> Str s
      | Json.Null | Json.Bool _ | Json.List _ | Json.Obj _ -> Json.refuse "not a scalar")
    (function Int i -> Json.Int i | Float f -> Json.Float f | Str s -> Json.Str s)
    Json.any

let item_json =
  let epoch proj = Json.field "epoch" Json.int proj in
  Json.(
    cases ~what:"item type" ~key:"t"
      [
        case "span"
          (record
             (let+ epoch = epoch (fun (e, _, _) -> e)
              and+ phase = field "phase" string (fun (_, p, _) -> p)
              and+ ms = field "ms" float (fun (_, _, ms) -> ms) in
              (epoch, phase, ms)))
          (fun (epoch, phase, ms) -> Span { epoch; phase; ms })
          (function Span { epoch; phase; ms } -> Some (epoch, phase, ms) | Event _ -> None);
        case "event"
          (record
             (let+ epoch = epoch (fun (e, _, _) -> e)
              and+ name = field "name" string (fun (_, n, _) -> n)
              and+ fields = rest field_json (fun (_, _, f) -> f) in
              (epoch, name, fields)))
          (fun (epoch, name, fields) -> Event { epoch; name; fields })
          (function Event { epoch; name; fields } -> Some (epoch, name, fields) | Span _ -> None);
      ])

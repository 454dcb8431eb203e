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

let spans t ~phase =
  List.fold_left
    (fun acc -> function
      | Span { phase = p; ms; _ } when String.equal p phase -> ms :: acc
      | Span _ | Event _ -> acc)
    [] t.rev_items

let length t = t.count

(* An event field is whichever scalar its member holds. *)
let field_json =
  Dream_util.Codec.(
    cases ~what:"event field"
      [
        case "int" (int "value") (fun i -> Int i) (function Int i -> Some i | _ -> None);
        case "float" (float "value") (fun f -> Float f) (function Float f -> Some f | _ -> None);
        case "str" (string "value") (fun s -> Str s) (function Str s -> Some s | _ -> None);
      ])

let item_json =
  let open Dream_util.Codec in
  let epoch proj = field (int "epoch") proj in
  cases ~what:"item type" ~key:"t"
    [
      case "span"
        (record
           (let+ epoch = epoch (fun (e, _, _) -> e)
            and+ phase = field (string "phase") (fun (_, p, _) -> p)
            and+ ms = field (float "ms") (fun (_, _, ms) -> ms) in
            (epoch, phase, ms)))
        (fun (epoch, phase, ms) -> Span { epoch; phase; ms })
        (function Span { epoch; phase; ms } -> Some (epoch, phase, ms) | Event _ -> None);
      case "event"
        (record
           (let+ epoch = epoch (fun (e, _, _) -> e)
            and+ name = field (string "name") (fun (_, n, _) -> n)
            and+ fields = rest field_json (fun (_, _, f) -> f) in
            (epoch, name, fields)))
        (fun (epoch, name, fields) -> Event { epoch; name; fields })
        (function Event { epoch; name; fields } -> Some (epoch, name, fields) | Span _ -> None);
    ]

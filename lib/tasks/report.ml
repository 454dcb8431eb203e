module Prefix = Dream_prefix.Prefix

type item = { prefix : Prefix.t; magnitude : float }

type t = { kind : Task_spec.kind; epoch : int; items : item list }

let size t = List.length t.items

let pp ppf t =
  Format.fprintf ppf "@[<v>%a report (epoch %d, %d items):@,%a@]" Task_spec.pp_kind t.kind t.epoch
    (size t)
    (Format.pp_print_list (fun ppf i ->
         Format.fprintf ppf "  %a  %.2f" Prefix.pp i.prefix i.magnitude))
    t.items

let of_items ~kind ~epoch (items : Items.t) =
  let rec build i acc =
    if i < 0 then acc
    else build (i - 1) ({ prefix = Prefix.of_key items.keys.(i); magnitude = items.mags.(i) } :: acc)
  in
  { kind; epoch; items = build (items.n - 1) [] }

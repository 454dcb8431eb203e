(* [Dream_tasks.Monitor] plus the boxed per-slot views the tests and the
   reference oracles read.  The program reads the columns in place; these
   read the same private record, one slot at a time. *)

include Dream_tasks.Monitor

let prefix t i = Dream_prefix.Prefix.of_key (key t i)

(* The slot of the counter on exactly this prefix. *)
let find t p =
  let i = slot_of_key t (Dream_prefix.Prefix.key p) in
  if i < 0 then None else Some i

let total t i = t.totals.(i)
let score t i = t.scores.(i)
let set_score t i s = t.scores.(i) <- s

(* The last fetched volume on the switch of a sub-filter bit, 0 without
   one. *)
let volume_on t i b = if has_volume t i b then t.vols.((i * t.k) + b) else 0.0

(* Every fetched volume, in ascending switch-id order. *)
let volumes t i =
  List.filter_map
    (fun b ->
      if has_volume t i b then Some (Dream_traffic.Topology.switch_of_bit t.topology b, t.vols.((i * t.k) + b))
      else None)
    (Array.to_list t.by_switch)

let mean t i = if seeded t i then Some t.means.(i) else None

(* [|total - mean|], 0 before any history. *)
let cd_deviation t i =
  let total = t.totals.(i) in
  Float.abs (total -. if seeded t i then t.means.(i) else total)

let active t = t.active_mask

(* [divide] outside a configure, the children's S sets worked out as the
   divide loop works them out: the left child's slot, the gap left open. *)
let divide_slot t i =
  let module P = Dream_prefix.Prefix in
  let key = key t i in
  let bits = P.key_bits key and child = P.key_length key + 1 in
  let mask bits = Dream_traffic.Topology.bits_mask t.topology ~bits ~length:child in
  divide t i ~left:(mask bits) ~right:(mask (bits lor (1 lsl (P.address_bits - child))))

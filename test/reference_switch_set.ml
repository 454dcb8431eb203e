(* The balanced-tree form of a task's switch set, the differential oracle
   for Dream_traffic.Switch_mask: the switches assigned a sub-filter that
   intersects a prefix, built from the topology's sub-filter list alone. *)

module Prefix = Dream_prefix.Prefix
module Switch_id = Dream_traffic.Switch_id
module Topology = Dream_traffic.Topology

let switch_set topology p =
  List.fold_left
    (fun acc (sub, sw) ->
      if Prefix.covers sub p || Prefix.covers p sub then Switch_id.Set.add sw acc else acc)
    Switch_id.Set.empty (Topology.subfilters topology)

(* The mask the sub-filter loop builds, the differential oracle for
   Topology.bits_mask's arithmetic: bit [i] is set when sub-filter [i]
   covers the (bits, length) prefix or the prefix covers it. *)
let bits_mask topology ~bits ~length =
  let rec go i acc =
    if i = Topology.switches_per_task topology then acc
    else begin
      let sub = Topology.subfilter_of_bit topology i in
      let sbits = Prefix.bits sub and slen = Prefix.length sub in
      let meets =
        Prefix.covers_bits ~abits:sbits ~alen:slen ~bbits:bits ~blen:length
        || Prefix.covers_bits ~abits:bits ~alen:length ~bbits:sbits ~blen:slen
      in
      go (i + 1) (if meets then acc lor (1 lsl i) else acc)
    end
  in
  go 0 0

(* The set of the switches whose bits are in [mask], through the sub-filter
   list. *)
let set_of_mask topology mask =
  List.fold_left
    (fun (i, acc) (_, sw) ->
      (i + 1, if mask land (1 lsl i) <> 0 then Switch_id.Set.add sw acc else acc))
    (0, Switch_id.Set.empty) (Topology.subfilters topology)
  |> snd

(* A per-bit array as the per-switch map it replaces: the entries of the
   bits in [mask]. *)
let map_of_bits topology mask values =
  List.fold_left
    (fun (i, acc) (_, sw) ->
      (i + 1, if mask land (1 lsl i) <> 0 then Switch_id.Map.add sw values.(i) acc else acc))
    (0, Switch_id.Map.empty) (Topology.subfilters topology)
  |> snd

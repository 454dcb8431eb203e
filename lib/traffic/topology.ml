module Prefix = Dream_prefix.Prefix
module Rng = Dream_util.Rng

type t = {
  filter : Prefix.t;
  num_switches : int;
  switches_per_task : int;
  subfilters : (Prefix.t * Switch_id.t) array; (* in address order *)
  switch_order : int array; (* sub-filter bits in ascending switch-id order *)
  split_shift : int; (* an address's sub-filter bit sits at this shift *)
}

let max_switches_per_task = 32

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Sub-filter [i] of [k] is the filter's [i]-th descendant [log2 k] bits
   deeper: [create] makes no other layout and [parse] accepts no other. *)
let nth_subfilter filter ~k i =
  Prefix.nth_descendant filter ~length:(Prefix.length filter + log2 k) i

let make ~filter ~num_switches ~switches_per_task subfilters =
  let switch_order = Array.init (Array.length subfilters) Fun.id in
  Array.sort (fun a b -> Int.compare (snd subfilters.(a)) (snd subfilters.(b))) switch_order;
  {
    filter;
    num_switches;
    switches_per_task;
    subfilters;
    switch_order;
    split_shift = Prefix.wildcard_bits filter - log2 switches_per_task;
  }

let create rng ~filter ~num_switches ~switches_per_task =
  if not (is_power_of_two switches_per_task) then
    invalid_arg "Topology.create: switches_per_task must be a power of two";
  if switches_per_task > num_switches then
    invalid_arg "Topology.create: switches_per_task exceeds num_switches";
  if switches_per_task > max_switches_per_task then
    invalid_arg "Topology.create: switches_per_task exceeds 32";
  let split_bits = log2 switches_per_task in
  if Prefix.wildcard_bits filter < split_bits then
    invalid_arg "Topology.create: filter too long to split";
  let all = Array.init num_switches Fun.id in
  Rng.shuffle rng all;
  let subfilters =
    Array.init switches_per_task (fun i -> (nth_subfilter filter ~k:switches_per_task i, all.(i)))
  in
  make ~filter ~num_switches ~switches_per_task subfilters

let rec find_bit subs sw i =
  if i = Array.length subs then -1 else if snd subs.(i) = sw then i else find_bit subs sw (i + 1)

(* Refuses a layout [create] cannot make. *)
let check ~filter ~switches_per_task subfilters =
  let n = Array.length subfilters in
  let refuse fmt = Printf.ksprintf Dream_util.Codec.refuse fmt in
  (* Sub-filter sets are bitmasks with one bit per sub-filter. *)
  if n <> switches_per_task || n > max_switches_per_task then
    refuse "%d sub-filters for switches_per_task %d (at most 32)" n switches_per_task;
  if not (is_power_of_two n) || Prefix.wildcard_bits filter < log2 n then
    refuse "%d sub-filters of %s: not an equal split" n (Prefix.to_string filter);
  Array.iteri
    (fun i (p, sw) ->
      let expected = nth_subfilter filter ~k:n i in
      if Prefix.bits p <> Prefix.bits expected || Prefix.length p <> Prefix.length expected then
        refuse "sub-filter %d is %s, not %s" i (Prefix.to_string p) (Prefix.to_string expected);
      if find_bit subfilters sw 0 < i then refuse "switch %d holds two sub-filters" sw)
    subfilters

let codec =
  let open Dream_util.Codec in
  let sub = pair (Prefix.codec "sub") (int "sw") in
  section "topology"
    (record
       (let+ filter = field (Prefix.codec "filter") (fun t -> t.filter)
        and+ num_switches = field (int "num_switches") (fun t -> t.num_switches)
        and+ switches_per_task = field (int "switches_per_task") (fun t -> t.switches_per_task)
        and+ subfilters = field (repeat "subfilters" sub) (fun t -> Array.to_list t.subfilters) in
        let subfilters = Array.of_list subfilters in
        check ~filter ~switches_per_task subfilters;
        make ~filter ~num_switches ~switches_per_task subfilters))

let switches_per_task t = t.switches_per_task

let subfilters t = Array.to_list t.subfilters

let subfilter_of_bit t i = fst t.subfilters.(i)

let switch_of_bit t i = snd t.subfilters.(i)

let switch_order t = t.switch_order

let bit_of_switch t sw = find_bit t.subfilters sw 0

let parse_bit t ~what sw =
  let b = bit_of_switch t sw in
  if b < 0 then
    Dream_util.Codec.refuse (Printf.sprintf "%s on switch %d, which the task never sees" what sw);
  b

(* Sub-filter [i] is the addresses whose [log2 k] bits below the filter read
   [i]: a prefix in the filter meets all [k] up to the filter's length, one
   from [split] on, and [2^(split - length)] from bit [first] in between. *)
let bits_mask t ~bits ~length =
  let flen = Prefix.length t.filter in
  let common = if length < flen then length else flen in
  if (bits lxor Prefix.bits t.filter) lsr (Prefix.address_bits - common) <> 0 then 0
  else if length <= flen then (1 lsl t.switches_per_task) - 1
  else
    let split = Prefix.address_bits - t.split_shift in
    let first = (bits lsr t.split_shift) land (t.switches_per_task - 1) in
    if length >= split then 1 lsl first else ((1 lsl (1 lsl (split - length))) - 1) lsl first

let prefix_mask t p = bits_mask t ~bits:(Prefix.bits p) ~length:(Prefix.length p)

let bit_of_address t addr =
  if not (Prefix.contains t.filter addr) then -1
  else (addr lsr t.split_shift) land (Array.length t.subfilters - 1)

let switch_of_address t addr =
  let b = bit_of_address t addr in
  if b < 0 then None else Some (snd t.subfilters.(b))

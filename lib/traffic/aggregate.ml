module Prefix = Dream_prefix.Prefix

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  addrs : ints; (* sorted, distinct; length n *)
  volumes : floats; (* volume of addrs.{i}; length n *)
  cumulative : floats; (* cumulative.{i} = sum volumes.{0..i-1}; length n+1 *)
  sorted_fast_path : bool; (* the build skipped [Flow.combine] *)
}

let make_ints n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let make_floats n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(* Volumes land in ascending address order and the cumulative sum runs left
   to right, exactly as the boxed oracle in the test tree fills its arrays;
   test/test_flat_store.ml holds the two to bitwise equality. *)
let of_flows flows =
  (* Sortedness fast path: the generator emits per-switch flows that
     arrive here already strictly ascending, so the combine sort would be
     a no-op — [Flow.combine] on sorted-distinct input returns an equal
     list. *)
  let sorted_fast_path = Flow.sorted_distinct flows in
  let flows = if sorted_fast_path then flows else Flow.combine flows in
  let n = List.length flows in
  let addrs = make_ints n in
  let volumes = make_floats n in
  let cumulative = make_floats (n + 1) in
  cumulative.{0} <- 0.0;
  let i = ref 0 in
  List.iter
    (fun (f : Flow.t) ->
      let k = !i in
      addrs.{k} <- f.addr;
      volumes.{k} <- f.volume;
      cumulative.{k + 1} <- cumulative.{k} +. f.volume;
      incr i)
    flows;
  { n; addrs; volumes; cumulative; sorted_fast_path }

let empty = of_flows []

let sorted_fast_path t = t.sorted_fast_path

(* Index of the first address >= [key] in [lo, hi); [lo] narrows the
   search when the caller already knows a valid lower bound (batched
   reads).  Toplevel, so a search builds no closure. *)
let rec lower_bound (addrs : ints) key lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if addrs.{mid} < key then lower_bound addrs key (mid + 1) hi else lower_bound addrs key lo mid
  end

let range t p =
  let lo = lower_bound t.addrs (Prefix.first_address p) 0 t.n in
  let hi = lower_bound t.addrs (Prefix.last_address p + 1) lo t.n in
  (lo, hi)

let volume t p =
  let lo, hi = range t p in
  t.cumulative.{hi} -. t.cumulative.{lo}

let total t = t.cumulative.{t.n}

let num_addresses t = t.n

let fold_in t p ~init ~f =
  let lo, hi = range t p in
  let acc = ref init in
  for i = lo to hi - 1 do
    acc := f !acc { Flow.addr = t.addrs.{i}; volume = t.volumes.{i} }
  done;
  !acc
[@@lint.allow "oracle hook: test/reference_ground_truth.ml"]

let flows_in t p =
  let lo, hi = range t p in
  let rec collect i acc =
    if i < lo then acc
    else collect (i - 1) ({ Flow.addr = t.addrs.{i}; volume = t.volumes.{i} } :: acc)
  in
  collect (hi - 1) []

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    acc := f !acc { Flow.addr = t.addrs.{i}; volume = t.volumes.{i} }
  done;
  !acc

(* Answer a batch of prefix-key queries in one pass.  TCAM rule columns
   are in key order, whose first component is the first covered address,
   so the running low bound [lo] below is a valid search floor for every
   later query; an unordered batch resets the floor and the answer is
   still exact, just not faster.  Each query computes the same (lo, hi)
   index pair — hence the same float — as {!volume} would. *)
let[@hot] read_keys t ~keys ~n vols =
  let prev_first = ref min_int in
  let prev_lo = ref 0 in
  for i = 0 to n - 1 do
    let key = keys.(i) in
    let first = Prefix.key_bits key in
    let from = if first >= !prev_first then !prev_lo else 0 in
    let lo = lower_bound t.addrs first from t.n in
    let hi = lower_bound t.addrs (Prefix.key_last key + 1) lo t.n in
    prev_first := first;
    prev_lo := lo;
    vols.(i) <- t.cumulative.{hi} -. t.cumulative.{lo}
  done

(* The index range of the addresses under a key's prefix: [key_lo] to
   [key_hi] exclusive, the two searches {!range} makes. *)
let key_lo t key = lower_bound t.addrs (Prefix.key_bits key) 0 t.n

let key_hi t key lo = lower_bound t.addrs (Prefix.key_last key + 1) lo t.n

(* A leaf is a run of the addresses under the key sharing their first
   [leaf_length] bits: those of [shift = 32 - leaf_length] are the leaf's.
   [prev] is the leaf of address [i - 1], -1 before the first. *)
let rec count_runs (addrs : ints) shift i hi prev count =
  if i >= hi then count
  else begin
    let leaf = addrs.{i} lsr shift in
    count_runs addrs shift (i + 1) hi leaf (if leaf = prev then count else count + 1)
  end

let count_leaves t key ~leaf_length =
  let lo = key_lo t key in
  count_runs t.addrs (Prefix.address_bits - leaf_length) lo (key_hi t key lo) (-1) 0

(* Each run summed into [vols] from 0.0 in ascending address order; [found]
   leaves written so far. *)
let rec sum_runs t shift ~leaf_length ~keys ~vols i hi prev found =
  if i >= hi then found
  else begin
    let leaf = t.addrs.{i} lsr shift in
    let found =
      if leaf = prev then found
      else begin
        keys.(found) <- Prefix.key_of ~bits:(leaf lsl shift) ~length:leaf_length;
        vols.(found) <- 0.0;
        found + 1
      end
    in
    vols.(found - 1) <- vols.(found - 1) +. t.volumes.{i};
    sum_runs t shift ~leaf_length ~keys ~vols (i + 1) hi leaf found
  end

let leaf_sums t key ~leaf_length ~keys ~vols =
  let lo = key_lo t key in
  sum_runs t (Prefix.address_bits - leaf_length) ~leaf_length ~keys ~vols lo (key_hi t key lo)
    (-1) 0

(* Point-wise sum, two linear passes: count the distinct addresses of the
   union, then fill.  Equal addresses sum left operand first ([va +. vb]),
   matching the left-to-right duplicate fold of [Flow.combine] on the
   concatenated flow lists the boxed oracle merges with. *)
let[@hot] merge a b =
  if a.n = 0 then b
  else if b.n = 0 then a
  else begin
    let count = ref 0 in
    let i = ref 0 and j = ref 0 in
    while !i < a.n && !j < b.n do
      let ai = a.addrs.{!i} and bj = b.addrs.{!j} in
      if ai < bj then incr i
      else if ai > bj then incr j
      else begin
        incr i;
        incr j
      end;
      incr count
    done;
    count := !count + (a.n - !i) + (b.n - !j);
    let n = !count in
    let addrs = make_ints n in
    let volumes = make_floats n in
    let cumulative = make_floats (n + 1) in
    cumulative.{0} <- 0.0;
    let k = ref 0 in
    let put addr v =
      let k0 = !k in
      addrs.{k0} <- addr;
      volumes.{k0} <- v;
      cumulative.{k0 + 1} <- cumulative.{k0} +. v;
      incr k
    in
    i := 0;
    j := 0;
    while !i < a.n && !j < b.n do
      let ai = a.addrs.{!i} and bj = b.addrs.{!j} in
      if ai < bj then begin
        put ai a.volumes.{!i};
        incr i
      end
      else if ai > bj then begin
        put bj b.volumes.{!j};
        incr j
      end
      else begin
        put ai (a.volumes.{!i} +. b.volumes.{!j});
        incr i;
        incr j
      end
    done;
    while !i < a.n do
      put a.addrs.{!i} a.volumes.{!i};
      incr i
    done;
    while !j < b.n do
      put b.addrs.{!j} b.volumes.{!j};
      incr j
    done;
    { n; addrs; volumes; cumulative; sorted_fast_path = true }
  end

let merge_all = function [] -> empty | hd :: tl -> List.fold_left merge hd tl

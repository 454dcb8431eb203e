module Prefix = Dream_prefix.Prefix

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  addrs : ints; (* sorted, distinct; length n *)
  volumes : floats; (* volume of addrs.{i}; length n *)
  cumulative : floats; (* cumulative.{i} = sum volumes.{0..i-1}; length n+1 *)
  sorted_fast_path : bool; (* no duplicates combined; for [of_flows], the list came ascending *)
}

let make_ints n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let make_floats n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(* A fresh aggregate over the first [n] entries of two columns already in
   strictly ascending address order.  The cumulative sum runs left to
   right, exactly as the boxed oracle in the test tree fills its arrays;
   test/test_flat_store.ml holds the two to bitwise equality. *)
let of_sorted (addrs : int array) (volumes : float array) n =
  let a = make_ints n in
  let v = make_floats n in
  let cumulative = make_floats (n + 1) in
  cumulative.{0} <- 0.0;
  for k = 0 to n - 1 do
    a.{k} <- addrs.(k);
    v.{k} <- volumes.(k);
    cumulative.{k + 1} <- cumulative.{k} +. volumes.(k)
  done;
  { n; addrs = a; volumes = v; cumulative; sorted_fast_path = true }

let rec ascending (addrs : int array) i n =
  i >= n || (addrs.(i - 1) < addrs.(i) && ascending addrs (i + 1) n)

(* An unsorted build sorts the address column in place with each entry's
   column index in its low bits: the keys are distinct, so any in-place
   sort yields the stable order, and the index finds the entry's volume. *)
let index_bits = 30

let index_mask = (1 lsl index_bits) - 1

let encode (addrs : int array) n =
  if n > index_mask then invalid_arg "Aggregate.of_columns: too many entries";
  for i = 0 to n - 1 do
    let addr = addrs.(i) in
    if addr < 0 || addr lsr Prefix.address_bits <> 0 then
      invalid_arg "Aggregate.of_columns: address out of range";
    addrs.(i) <- (addr lsl index_bits) lor i
  done

let swap (a : int array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* Insert [x] into the sorted run [lo, j]: entries above it move up one. *)
let rec sift (a : int array) lo x j =
  if j >= lo && a.(j) > x then begin
    a.(j + 1) <- a.(j);
    sift a lo x (j - 1)
  end
  else a.(j + 1) <- x

let insertion_sort (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    sift a lo a.(i) (i - 1)
  done

let rec scan_up (a : int array) pivot i = if a.(i) < pivot then scan_up a pivot (i + 1) else i

let rec scan_down (a : int array) pivot j = if a.(j) > pivot then scan_down a pivot (j - 1) else j

(* Hoare partition of (i, j) around [pivot]; returns the pivot's slot. *)
let rec partition (a : int array) pivot i j =
  let i = scan_up a pivot (i + 1) in
  let j = scan_down a pivot (j - 1) in
  if i < j then begin
    swap a i j;
    partition a pivot i j
  end
  else i

(* Quicksort of distinct ints in [lo, hi): median-of-three pivot and
   insertion sort below 16 entries.  The larger side is the tail call, so
   the stack stays logarithmic. *)
let rec quicksort (a : int array) lo hi =
  if hi - lo <= 16 then insertion_sort a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if a.(mid) < a.(lo) then swap a mid lo;
    if a.(hi - 1) < a.(lo) then swap a (hi - 1) lo;
    if a.(hi - 1) < a.(mid) then swap a (hi - 1) mid;
    (* a.(lo) < pivot < a.(hi - 1) bound both scans; the pivot waits at
       hi - 2 and lands at [p], with smaller keys left and larger right. *)
    swap a mid (hi - 2);
    let p = partition a a.(hi - 2) lo (hi - 2) in
    swap a p (hi - 2);
    if p - lo < hi - p then begin
      quicksort a lo p;
      quicksort a (p + 1) hi
    end
    else begin
      quicksort a (p + 1) hi;
      quicksort a lo p
    end
  end

(* The number of distinct addresses among sorted keys. *)
let rec count_distinct (keys : int array) i n prev count =
  if i >= n then count
  else begin
    let addr = keys.(i) lsr index_bits in
    count_distinct keys (i + 1) n addr (if addr = prev then count else count + 1)
  end

(* Sorted keys [i, n) into [a]/[v] after slot [k]: a run of one address
   sums left to right in column order, as the boxed oracle's stable sort
   and fold of duplicates do. *)
let rec sum_runs_into (keys : int array) (volumes : float array) (a : ints) (v : floats) i n k =
  if i < n then begin
    let key = keys.(i) in
    let addr = key lsr index_bits and x = volumes.(key land index_mask) in
    if k >= 0 && a.{k} = addr then begin
      v.{k} <- v.{k} +. x;
      sum_runs_into keys volumes a v (i + 1) n k
    end
    else begin
      a.{k + 1} <- addr;
      v.{k + 1} <- x;
      sum_runs_into keys volumes a v (i + 1) n (k + 1)
    end
  end

let of_columns (addrs : int array) (volumes : float array) n =
  if ascending addrs 1 n then of_sorted addrs volumes n
  else begin
    encode addrs n;
    quicksort addrs 0 n;
    let m = count_distinct addrs 0 n (-1) 0 in
    let a = make_ints m in
    let v = make_floats m in
    let cumulative = make_floats (m + 1) in
    sum_runs_into addrs volumes a v 0 n (-1);
    cumulative.{0} <- 0.0;
    for j = 0 to m - 1 do
      cumulative.{j + 1} <- cumulative.{j} +. v.{j};
      addrs.(j) <- a.{j};
      volumes.(j) <- v.{j}
    done;
    { n = m; addrs = a; volumes = v; cumulative; sorted_fast_path = m = n }
  end

let of_flows flows =
  let n = List.length flows in
  let addrs = Array.make n 0 and volumes = Array.make n 0.0 in
  List.iteri
    (fun i (f : Flow.t) ->
      addrs.(i) <- f.addr;
      volumes.(i) <- f.volume)
    flows;
  let t = of_columns addrs volumes n in
  (* An unsorted list of distinct addresses still reports the sort. *)
  if t.sorted_fast_path && not (Flow.sorted_distinct flows) then { t with sorted_fast_path = false }
  else t

let empty = of_sorted [||] [||] 0

type columns = { mutable scratch_addrs : int array; mutable scratch_volumes : float array }

let columns () = { scratch_addrs = [||]; scratch_volumes = [||] }

(* [t]'s entries into the scratch columns from [at]. *)
let blit_into (c : columns) t at =
  for i = 0 to t.n - 1 do
    c.scratch_addrs.(at + i) <- t.addrs.{i};
    c.scratch_volumes.(at + i) <- t.volumes.{i}
  done

let rec total_entries (ts : t array) i acc =
  if i = Array.length ts then acc else total_entries ts (i + 1) (acc + ts.(i).n)

(* The first non-empty aggregate from [i] on, or the array's length. *)
let rec next_nonempty (ts : t array) i =
  if i = Array.length ts || ts.(i).n > 0 then i else next_nonempty ts (i + 1)

let rec gather c (ts : t array) i at =
  if i < Array.length ts then begin
    blit_into c ts.(i) at;
    gather c ts (i + 1) (at + ts.(i).n)
  end

let union c ts =
  let first = next_nonempty ts 0 in
  if first = Array.length ts then empty
  else if next_nonempty ts (first + 1) = Array.length ts then ts.(first)
  else begin
    let n = total_entries ts 0 0 in
    if Array.length c.scratch_addrs < n then begin
      c.scratch_addrs <-
        (Array.make (2 * n) 0 [@alloc.allow "growth only: the scratch keeps its room"]);
      c.scratch_volumes <-
        (Array.make (2 * n) 0.0 [@alloc.allow "growth only: the scratch keeps its room"])
    end;
    gather c ts 0 0;
    of_columns c.scratch_addrs c.scratch_volumes n
  end

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

(* The first index in [lo, n) whose address is >= [key], or [n], given
   that every address before [lo] is below [key]: probe [lo], then slots
   1, 2, 4, ... further on until one is >= [key], and bisect the last
   stride.  A cursor that is already close costs a probe or two. *)
let rec gallop (addrs : ints) key lo step n =
  let probe = lo + step - 1 in
  if probe >= n then lower_bound addrs key lo n
  else if addrs.{probe} < key then gallop addrs key (probe + 1) (2 * step) n
  else lower_bound addrs key lo probe

(* Key [i] on: its [lo, hi) is found from the previous key's ([first_prev]
   to [stop_prev], at indices [lo_prev, hi_prev)).  A key starting at or
   past the previous stop (the next rule of a partition in key order)
   gallops from [hi_prev], usually one probe; one starting inside the
   previous range (nested) from [lo_prev]; one starting before it (an
   unordered batch) from 0.  Every address before the start is below the
   key's first address either way, so each key gets the same (lo, hi)
   pair two fresh searches would, hence the same float. *)
let rec read_from t keys n vols i first_prev stop_prev lo_prev hi_prev =
  if i < n then begin
    let key = keys.(i) in
    let first = Prefix.key_bits key and stop = Prefix.key_last key + 1 in
    let start = if first >= stop_prev then hi_prev else if first >= first_prev then lo_prev else 0 in
    let lo = gallop t.addrs first start 1 t.n in
    let hi = gallop t.addrs stop lo 1 t.n in
    vols.(i) <- t.cumulative.{hi} -. t.cumulative.{lo};
    read_from t keys n vols (i + 1) first stop lo hi
  end

let[@hot] read_keys t ~keys ~n vols = read_from t keys n vols 0 max_int max_int 0 0

let split t addr ~lo ~hi = lower_bound t.addrs addr lo hi

let span_volume t ~lo ~hi cells c = cells.(c) <- t.cumulative.{hi} -. t.cumulative.{lo}

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

module Prefix = Dream_prefix.Prefix
module Switch_mask = Dream_traffic.Switch_mask
module Topology = Dream_traffic.Topology
module Ewma = Dream_util.Ewma

(* The counter table: slots [0, n) in prefix order, one unboxed column per
   field (the layout is documented with the type in monitor.mli). *)
type t = {
  spec : Task_spec.t;
  topology : Topology.t;
  k : int;
  by_switch : int array;
  mutable gap : int;
  mutable n : int;
  mutable keys : Bytes.t;
  mutable masks : Bytes.t;
  mutable flags : Bytes.t;
  mutable stamps : Bytes.t;
  mutable totals : float array;
  mutable scores : float array;
  mutable means : float array;
  mutable vols : float array;
  mutable next_stamp : int;
  switches : Switch_mask.t;
  usage : int array;
  mutable active_mask : Switch_mask.t;
}

let fresh_flag = 1

let seeded_flag = 2

let[@inline] present b = 4 lsl b

let presence_mask k = ((1 lsl k) - 1) lsl 2

(* ---- the columns ---- *)

let[@inline] get col i = Int64.to_int (Bytes.get_int64_ne col (i lsl 3))

let[@inline] set col i v = Bytes.set_int64_ne col (i lsl 3) (Int64.of_int v)

let[@inline] bits_at t i = Prefix.key_bits (get t.keys i)

let[@inline] length_at t i = Prefix.key_length (get t.keys i)

let[@inline] last_at t i = Prefix.key_last (get t.keys i)

let[@inline] flag t i f = get t.flags i land f <> 0

(* Slots the columns hold: the [n] in use and the gap's [cap t - n] spare
   ones, which lie in between slots [gap - 1] and [gap] of the table.
   Only a configure opens the gap; everything else reads it settled, at
   [n], where the table is slots [0, n). *)
let[@inline] cap t = Bytes.length t.keys lsr 3

let capacity = cap

(* The slot holding the table's [l]th counter: past the gap, the spare
   slots lie in between. *)
let[@inline] slot t l = if l < t.gap then l else l + cap t - t.n

(* The columns grow by copying into larger ones: the run left of the gap
   to the start, the run right of it ([right, old)) to the end, so the
   gap stays where it is and takes the new room. *)
let grown_bytes col n ~left ~right ~old =
  let b = Bytes.create n in
  Bytes.blit col 0 b 0 left;
  Bytes.blit col right b (right + n - old) (old - right);
  b

let grown_floats (a : float array) n ~left ~right ~old =
  let b = Array.make n 0.0 in
  Array.blit a 0 b 0 left;
  Array.blit a right b (right + n - old) (old - right);
  b

(* Move the counters of every column into columns of [c] slots. *)
let resize t c =
  let old = cap t and k = t.k and left = t.gap in
  let right = left + old - t.n in
  let n = c lsl 3 and left8 = left lsl 3 and right8 = right lsl 3 and old8 = old lsl 3 in
  t.keys <- grown_bytes t.keys n ~left:left8 ~right:right8 ~old:old8;
  t.masks <- grown_bytes t.masks n ~left:left8 ~right:right8 ~old:old8;
  t.flags <- grown_bytes t.flags n ~left:left8 ~right:right8 ~old:old8;
  t.stamps <- grown_bytes t.stamps n ~left:left8 ~right:right8 ~old:old8;
  t.totals <- grown_floats t.totals c ~left ~right ~old;
  t.scores <- grown_floats t.scores c ~left ~right ~old;
  t.means <- grown_floats t.means c ~left ~right ~old;
  t.vols <- grown_floats t.vols (c * k) ~left:(left * k) ~right:(right * k) ~old:(old * k)

(* Copy slots [src, src + len) to [dst, dst + len) in every column. *)
let move t ~src ~dst ~len =
  Bytes.blit t.keys (src lsl 3) t.keys (dst lsl 3) (len lsl 3);
  Bytes.blit t.masks (src lsl 3) t.masks (dst lsl 3) (len lsl 3);
  Bytes.blit t.flags (src lsl 3) t.flags (dst lsl 3) (len lsl 3);
  Bytes.blit t.stamps (src lsl 3) t.stamps (dst lsl 3) (len lsl 3);
  Array.blit t.totals src t.totals dst len;
  Array.blit t.scores src t.scores dst len;
  Array.blit t.means src t.means dst len;
  Array.blit t.vols (src * t.k) t.vols (dst * t.k) (len * t.k)

(* Open the gap before the table's [g]th counter: the counters between
   it and [g] cross it, one move of each column. *)
let move_gap t g =
  let spare = cap t - t.n in
  if spare > 0 then begin
    if g < t.gap then move t ~src:g ~dst:(g + spare) ~len:(t.gap - g)
    else if g > t.gap then move t ~src:(t.gap + spare) ~dst:t.gap ~len:(g - t.gap)
  end;
  t.gap <- g

let settle t = move_gap t t.n

(* Write a new counter's prefix, S set ([Topology.bits_mask] of the prefix)
   and flags into slot [i], with a zero total and a stamp of its own; the
   caller writes its score and mean (passing them here would box them). *)
let init_slot t i ~key ~mask ~flags =
  set t.keys i key;
  set t.masks i mask;
  set t.flags i flags;
  set t.stamps i t.next_stamp;
  t.next_stamp <- t.next_stamp + 1;
  t.totals.(i) <- 0.0

(* [total]: the present volumes summed in ascending switch-id order, the
   order a per-switch map folds in, so the float is the same bit for bit. *)
let seal_total t i =
  let fl = get t.flags i in
  t.totals.(i) <- 0.0;
  for j = 0 to t.k - 1 do
    let b = t.by_switch.(j) in
    if fl land present b <> 0 then t.totals.(i) <- t.totals.(i) +. t.vols.((i * t.k) + b)
  done

(* The sub-filters a counter actually occupies: its traffic sub-filters
   whose switch the allocator has granted at least one entry on. *)
let[@inline] effective t i = get t.masks i land t.active_mask

let rec bump usage mask delta i =
  if mask lsr i <> 0 then begin
    if mask land (1 lsl i) <> 0 then usage.(i) <- usage.(i) + delta;
    bump usage mask delta (i + 1)
  end

let recompute_usage t =
  Array.fill t.usage 0 (Array.length t.usage) 0;
  for i = 0 to t.n - 1 do
    bump t.usage (effective t i) 1 0
  done

(* An empty table on [storage]'s columns: its slots keep whatever an
   earlier owner left, and every slot is written before it is read. *)
let make ~spec ~topology ~active ~(storage : Storage.t) =
  let k = Topology.switches_per_task topology in
  if Array.length storage.vols <> storage.cap * k then
    invalid_arg "Monitor: storage of another sub-filter count";
  {
    spec;
    topology;
    k;
    by_switch = Topology.switch_order topology;
    gap = 0;
    n = 0;
    keys = storage.keys;
    masks = storage.masks;
    flags = storage.flags;
    stamps = storage.stamps;
    totals = storage.totals;
    scores = storage.scores;
    means = storage.means;
    vols = storage.vols;
    next_stamp = 0;
    switches = Topology.prefix_mask topology spec.Task_spec.filter;
    usage = Array.make k 0;
    active_mask = active;
  }

(* Room for at least [c] slots. *)
let reserve t c = if cap t < c then resize t c

(* A new last slot of a settled table, whose contents the caller then
   writes: its index. *)
let append t =
  if t.n = cap t then resize t (max (t.n + 1) (2 * cap t));
  let i = t.n in
  t.n <- i + 1;
  t.gap <- i + 1;
  i

(* The S set of a new counter on a prefix key. *)
let mask_of t key =
  Topology.bits_mask t.topology ~bits:(Prefix.key_bits key) ~length:(Prefix.key_length key)

let create ~spec ~topology ~storage =
  let filter = spec.Task_spec.filter in
  let t = make ~spec ~topology ~active:(Topology.prefix_mask topology filter) ~storage in
  reserve t 16;
  let i = append t and key = Prefix.key filter in
  init_slot t i ~key ~mask:(mask_of t key) ~flags:fresh_flag;
  t.scores.(i) <- 0.0;
  t.means.(i) <- 0.0;
  recompute_usage t;
  t

let release t (storage : Storage.t) =
  storage.cap <- cap t;
  storage.keys <- t.keys;
  storage.masks <- t.masks;
  storage.flags <- t.flags;
  storage.stamps <- t.stamps;
  storage.totals <- t.totals;
  storage.scores <- t.scores;
  storage.means <- t.means;
  storage.vols <- t.vols

let spec t = t.spec

let topology t = t.topology

let num_counters t = t.n

(* ---- slot accessors ---- *)

let prefix t i = Prefix.of_key (get t.keys i)

let wildcards t i = t.spec.Task_spec.leaf_length - length_at t i

let is_exact t i = length_at t i >= t.spec.Task_spec.leaf_length

let switch_count t i = Switch_mask.cardinal (get t.masks i)

let fresh t i = flag t i fresh_flag

(* Slot [i]'s present (bit, volume) pairs, in ascending switch-id order. *)
let volumes t i =
  let acc = ref [] in
  for j = t.k - 1 downto 0 do
    let b = t.by_switch.(j) in
    if flag t i (present b) then acc := (b, t.vols.((i * t.k) + b)) :: !acc
  done;
  !acc

let seeded t i = flag t i seeded_flag

let has_volume t i b = flag t i (present b)

(* The EWMA's arithmetic (see Dream_util.Ewma), on the mean column. *)
let update_means t =
  let h = Task_spec.cd_history in
  for i = 0 to t.n - 1 do
    let fl = get t.flags i in
    let x = t.totals.(i) in
    t.means.(i) <- (if fl land seeded_flag <> 0 then (h *. t.means.(i)) +. ((1.0 -. h) *. x) else x);
    set t.flags i (fl lor seeded_flag)
  done

(* The first slot in [lo, hi) whose key is at least [key], or [hi]. *)
let rec seat t key lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if get t.keys mid < key then seat t key (mid + 1) hi else seat t key lo mid
  end

(* The lowest key at an address: keys order by first address first, so a
   counter starts at or after [addr] exactly when its key is at least
   this one. *)
let[@inline] lowest addr = Prefix.key_of ~bits:addr ~length:0

let bisect t addr lo hi = seat t (lowest addr) lo hi

(* [seat] over the table's counters from the [lo]th on, the gap open: a
   bisect of the one run beside the gap that can hold the answer.  The
   answer is the counter's place in the table, not its slot. *)
let seat_counter t key lo =
  let spare = cap t - t.n in
  let right = t.gap + spare in
  if lo >= t.gap then seat t key (lo + spare) (cap t) - spare
  else if right < cap t && get t.keys right < key then seat t key right (cap t) - spare
  else seat t key lo t.gap

(* The slot holding exactly the prefix of [key], or -1, the gap open. *)
let slot_of_key t key =
  let l = seat_counter t key 0 in
  let i = slot t l in
  if l < t.n && get t.keys i = key then i else -1

let rec fold_down f t ~first i acc = if i < first then acc else fold_down f t ~first (i - 1) (f i acc)

let fold f t acc = fold_down f t ~first:0 (t.n - 1) acc

(* A counter's S set holds a switch exactly when its prefix intersects that
   switch's sub-filter [b]: the counters intersecting its address range,
   one contiguous run of slots, [run_start t b] to [run_stop t b first]
   exclusive. *)
let run_start t b =
  let lo = Prefix.first_address (Topology.subfilter_of_bit t.topology b) in
  let i = bisect t lo 0 t.n in
  (* The counter holding [lo] may start before it. *)
  if i > 0 && last_at t (i - 1) >= lo then i - 1 else i

let run_stop t b first =
  bisect t (Prefix.last_address (Topology.subfilter_of_bit t.topology b) + 1) first t.n

let fold_seeing f t b acc =
  let first = run_start t b in
  fold_down f t ~first (run_stop t b first - 1) acc

let switches t = t.switches

let usage t b = t.usage.(b)

(* The rules of a switch are the counters seeing it, one run of slots;
   none on a switch outside {!active}. *)
let rules_start t sw =
  let b = Topology.bit_of_switch t.topology sw in
  if b < 0 || not (Switch_mask.mem_bit b t.active_mask) then 0 else run_start t b

let rules_stop t sw first =
  let b = Topology.bit_of_switch t.topology sw in
  if b < 0 || not (Switch_mask.mem_bit b t.active_mask) then first else run_stop t b first

let key t i = get t.keys i

let clear_readings t =
  let keep = lnot (presence_mask t.k) in
  for i = 0 to t.n - 1 do
    set t.flags i (get t.flags i land keep)
  done

(* One switch's readings merged into the slots.  A TCAM answers in key
   order, so after one bisect seats the cursor it only moves forward; a
   reading behind it (never from a TCAM) re-seats it with another.
   Readings for prefixes no longer monitored are stale: dropped.  A later
   reading of a slot replaces an earlier one. *)
let rec advance t low j = if j < t.n && get t.keys j < low then advance t low (j + 1) else j

(* Readings [i, n) merged from cursor [j] (-1 before the first bisect). *)
let rec ingest_from t b keys vols n i j =
  if i < n then begin
    let key = keys.(i) in
    let low = lowest (Prefix.key_bits key) in
    let j =
      if j < 0 then seat t low 0 t.n
      else if j > 0 && get t.keys (j - 1) >= low then seat t low 0 j
      else advance t low j
    in
    if j < t.n && get t.keys j = key then begin
      t.vols.((j * t.k) + b) <- vols.(i);
      set t.flags j (get t.flags j lor present b);
      ingest_from t b keys vols n (i + 1) (j + 1)
    end
    else ingest_from t b keys vols n (i + 1) j
  end

let ingest t sw ~keys ~vols n =
  let b = Topology.bit_of_switch t.topology sw in
  if b >= 0 then ingest_from t b keys vols n 0 (-1)

let seal_readings t =
  for i = 0 to t.n - 1 do
    seal_total t i;
    set t.flags i (get t.flags i land lnot fresh_flag)
  done

let rec saturated t allocations i acc =
  if i = Array.length t.usage then acc
  else if t.active_mask land (1 lsl i) <> 0 && t.usage.(i) >= allocations.(i) then
    saturated t allocations (i + 1) (acc lor (1 lsl i))
  else saturated t allocations (i + 1) acc

let bottlenecked t ~allocations = saturated t allocations 0 0

(* ---- merge and divide ---- *)

(* Replace every counter under [ancestor] by one counter on it, built in
   place in the first victim's slot.  The victims are one run of the table
   in prefix order, so the float sums below add in the same order whatever
   history built the configuration: score and CD mean from 0.0, and per
   sub-filter the volumes of the victims that have one (a sub-filter no
   victim has a volume on stays absent).  The gap moves in among the
   victims, or to their nearer end, and takes the slots of all but the
   first: the only counters moved are those between the gap and there. *)
let[@hot] merge t ~abits ~alen =
  let lo = seat_counter t (lowest abits) 0 in
  let hi = seat_counter t (lowest (abits + (1 lsl (Prefix.address_bits - alen)))) lo in
  let first = slot t lo in
  (* Otherwise a counter on or above [ancestor] already covers it. *)
  if
    lo < hi
    && alen < length_at t first
    && Prefix.covers_bits ~abits ~alen ~bbits:(bits_at t first) ~blen:(length_at t first)
  then begin
    move_gap t (max (lo + 1) (min t.gap hi));
    let k = t.k in
    let fl = get t.flags lo in
    bump t.usage (effective t lo) (-1) 0;
    t.scores.(lo) <- 0.0 +. t.scores.(lo);
    t.means.(lo) <- (if fl land seeded_flag <> 0 then 0.0 +. t.means.(lo) else 0.0);
    for j = lo + 1 to hi - 1 do
      let i = slot t j in
      let vf = get t.flags i and acc = get t.flags lo in
      bump t.usage (effective t i) (-1) 0;
      for b = 0 to k - 1 do
        if vf land present b <> 0 then begin
          let v = t.vols.((i * k) + b) in
          if acc land present b <> 0 then t.vols.((lo * k) + b) <- t.vols.((lo * k) + b) +. v
          else t.vols.((lo * k) + b) <- v
        end
      done;
      t.scores.(lo) <- t.scores.(lo) +. t.scores.(i);
      if vf land seeded_flag <> 0 then t.means.(lo) <- t.means.(lo) +. t.means.(i);
      set t.flags lo (acc lor (vf land (seeded_flag lor presence_mask k)))
    done;
    let key = Prefix.key_of ~bits:abits ~length:alen in
    init_slot t lo ~key ~mask:(mask_of t key) ~flags:(get t.flags lo land lnot fresh_flag);
    t.n <- t.n - (hi - lo - 1);
    t.gap <- lo + 1;
    seal_total t lo;
    bump t.usage (effective t lo) 1 0
  end

(* Replace the live counter in slot [i] by its two children: the gap moves
   to just after the counter and gives up one slot to the right child.
   Each child inherits half the parent's score and, when it has one, half
   its CD mean. *)
let[@hot] divide t i ~left ~right =
  let key = get t.keys i in
  let len = Prefix.key_length key in
  if len = Prefix.address_bits then i
  else begin
    let lbits = Prefix.key_bits key and child = len + 1 in
    let rbits = lbits lor (1 lsl (Prefix.address_bits - child)) in
    let fl = get t.flags i land seeded_flag in
    let half_score = t.scores.(i) /. 2.0 in
    let half_mean = if fl <> 0 then t.means.(i) /. 2.0 else 0.0 in
    (* The counter's place in the table, which the moves below keep. *)
    let l = if i < t.gap then i else i - (cap t - t.n) in
    bump t.usage (effective t i) (-1) 0;
    if t.n = cap t then resize t (max (t.n + 1) (2 * cap t));
    move_gap t (l + 1);
    t.n <- t.n + 1;
    t.gap <- l + 2;
    init_slot t l ~key:(Prefix.key_of ~bits:lbits ~length:child) ~mask:left
      ~flags:(fl lor fresh_flag);
    init_slot t (l + 1) ~key:(Prefix.key_of ~bits:rbits ~length:child) ~mask:right
      ~flags:(fl lor fresh_flag);
    t.scores.(l) <- half_score;
    t.scores.(l + 1) <- half_score;
    t.means.(l) <- half_mean;
    t.means.(l + 1) <- half_mean;
    bump t.usage (effective t l) 1 0;
    bump t.usage (effective t (l + 1)) 1 0;
    l
  end

let set_active t mask =
  if mask <> t.active_mask then begin
    t.active_mask <- mask;
    recompute_usage t
  end

(* ---- checkpoints ---- *)

(* Whether slots [i, n) tile the filter from address [next] on: each
   counter lies inside the filter and starts where the one before it ended,
   and the last ends with the filter.  So the counters are strictly
   increasing, disjoint, inside the filter and cover it, in one pass. *)
let rec tiles t i next =
  let filter = t.spec.Task_spec.filter in
  if i = t.n then next = Prefix.last_address filter + 1
  else begin
    let p = prefix t i in
    Prefix.covers filter p
    && Prefix.first_address p = next
    && tiles t (i + 1) (Prefix.last_address p + 1)
  end

let is_partition t = tiles t 0 (Prefix.first_address t.spec.Task_spec.filter)

(* One counter as a checkpoint holds it: its volumes by sub-filter bit,
   written as [sw]/[vol] pairs in switch-id order, and its CD mean in
   Ewma's own format. *)
type saved = {
  at : Prefix.t;
  vols : (int * float) list;
  score : float;
  avg : Ewma.t;
  is_fresh : bool;
}

let saved t i =
  {
    at = prefix t i;
    vols = volumes t i;
    score = t.scores.(i);
    avg =
      Ewma.restore ~history:Task_spec.cd_history
        ~avg:(if flag t i seeded_flag then Some t.means.(i) else None);
    is_fresh = fresh t i;
  }

(* [c] into a new last slot. *)
let restore_counter t c =
  let i = append t in
  let present_bits =
    List.fold_left
      (fun acc (b, v) ->
        t.vols.((i * t.k) + b) <- v;
        acc lor present b)
      0 c.vols
  in
  let seeded, avg = match Ewma.value c.avg with Some v -> (true, v) | None -> (false, 0.0) in
  let key = Prefix.key c.at in
  init_slot t i ~key ~mask:(mask_of t key)
    ~flags:
      (present_bits lor (if seeded then seeded_flag else 0)
      lor if c.is_fresh then fresh_flag else 0);
  t.scores.(i) <- c.score;
  t.means.(i) <- avg;
  (* [total] is recomputed with the same sum [ingest] uses, so the restored
     float is bit-identical to the captured one. *)
  seal_total t i

let codec ~spec ~topology ~storage =
  let open Dream_util.Codec in
  let bit why =
    conv
      (fun sw ->
        let b = Topology.bit_of_switch topology sw in
        if b < 0 then refuse why;
        b)
      (Topology.switch_of_bit topology) (int "sw")
  in
  let volume =
    pair (bit "monitor: a counter volume on a switch the task never sees") (float "vol")
  in
  let counter =
    section "counter"
      (record
         (let+ at = field (Prefix.codec "prefix") (fun c -> c.at)
          and+ vols = field (repeat "volumes" volume) (fun c -> c.vols)
          and+ score = field (float "score") (fun c -> c.score)
          and+ avg = field (Ewma.codec ~history:Task_spec.cd_history) (fun c -> c.avg)
          and+ is_fresh = field (bool "fresh") (fun c -> c.is_fresh) in
          { at; vols; score; avg; is_fresh }))
  in
  let active_bits t =
    List.rev (Switch_mask.fold t.topology (fun _ b acc -> b :: acc) t.active_mask [])
  in
  section "monitor"
    (record
       (let+ active =
          field
            (repeat "active" (bit "monitor: an active switch sees none of the task's sub-filters"))
            active_bits
        and+ counters = field (repeat "counters" counter) (fun t -> List.init t.n (saved t)) in
        let active = List.fold_left (fun acc b -> acc lor (1 lsl b)) Switch_mask.empty active in
        let t = make ~spec ~topology ~active ~storage in
        reserve t (max 1 (List.length counters));
        List.iter (restore_counter t) counters;
        if not (is_partition t) then
          refuse "monitor: the counters do not partition the task's filter";
        recompute_usage t;
        t))

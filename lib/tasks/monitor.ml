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
  mutable cap : int;
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

(* The columns grow by copying into larger ones. *)
let grown_bytes col n used =
  let b = Bytes.create n in
  Bytes.blit col 0 b 0 used;
  b

let grown_floats (a : float array) n used =
  let b = Array.make n 0.0 in
  Array.blit a 0 b 0 used;
  b

(* Copy slots [0, n) of every column into columns of [cap] slots. *)
let resize t cap =
  t.keys <- grown_bytes t.keys (cap lsl 3) (t.n lsl 3);
  t.masks <- grown_bytes t.masks (cap lsl 3) (t.n lsl 3);
  t.flags <- grown_bytes t.flags (cap lsl 3) (t.n lsl 3);
  t.stamps <- grown_bytes t.stamps (cap lsl 3) (t.n lsl 3);
  t.totals <- grown_floats t.totals cap t.n;
  t.scores <- grown_floats t.scores cap t.n;
  t.means <- grown_floats t.means cap t.n;
  t.vols <- grown_floats t.vols (cap * t.k) (t.n * t.k);
  t.cap <- cap

(* Replace slots [lo, hi) by [len] slots whose contents the caller then
   writes: one shift of the tail per column. *)
let shift t ~lo ~hi ~len =
  let n = t.n - (hi - lo) + len in
  if n > t.cap then resize t (max n (2 * t.cap));
  let tail = t.n - hi and dst = lo + len in
  if tail > 0 && dst <> hi then begin
    Bytes.blit t.keys (hi lsl 3) t.keys (dst lsl 3) (tail lsl 3);
    Bytes.blit t.masks (hi lsl 3) t.masks (dst lsl 3) (tail lsl 3);
    Bytes.blit t.flags (hi lsl 3) t.flags (dst lsl 3) (tail lsl 3);
    Bytes.blit t.stamps (hi lsl 3) t.stamps (dst lsl 3) (tail lsl 3);
    Array.blit t.totals hi t.totals dst tail;
    Array.blit t.scores hi t.scores dst tail;
    Array.blit t.means hi t.means dst tail;
    Array.blit t.vols (hi * t.k) t.vols (dst * t.k) (tail * t.k)
  end;
  t.n <- n

(* Write a new counter's prefix and flags into slot [i], with a zero total
   and a stamp of its own; the caller writes its score and mean (passing
   them here would box them). *)
let init_slot t i ~key ~flags =
  set t.keys i key;
  set t.masks i
    (Topology.bits_mask t.topology ~bits:(Prefix.key_bits key) ~length:(Prefix.key_length key));
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
    cap = storage.cap;
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

(* Room for at least [cap] slots. *)
let reserve t cap = if t.cap < cap then resize t cap

let create ~spec ~topology ~storage =
  let filter = spec.Task_spec.filter in
  let t = make ~spec ~topology ~active:(Topology.prefix_mask topology filter) ~storage in
  reserve t 16;
  shift t ~lo:0 ~hi:0 ~len:1;
  init_slot t 0 ~key:(Prefix.key filter) ~flags:fresh_flag;
  t.scores.(0) <- 0.0;
  t.means.(0) <- 0.0;
  recompute_usage t;
  t

let release t (storage : Storage.t) =
  storage.cap <- t.cap;
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

(* The first slot in [lo, hi) whose counter starts at or after [addr], or
   [hi]: keys order by first address first. *)
let rec bisect t addr lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if bits_at t mid < addr then bisect t addr (mid + 1) hi else bisect t addr lo mid
  end

(* The slot holding exactly the prefix of [key], or -1. *)
let slot_of_key t key =
  let i = bisect t (Prefix.key_bits key) 0 t.n in
  if i < t.n && get t.keys i = key then i else -1

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
let rec advance t addr j = if j < t.n && bits_at t j < addr then advance t addr (j + 1) else j

(* Readings [i, n) merged from cursor [j] (-1 before the first bisect). *)
let rec ingest_from t b keys vols n i j =
  if i < n then begin
    let key = keys.(i) in
    let addr = Prefix.key_bits key in
    let j =
      if j < 0 then bisect t addr 0 t.n
      else if j > 0 && bits_at t (j - 1) >= addr then bisect t addr 0 j
      else advance t addr j
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
   place in the first victim's slot.  The victims are one run of slots in
   prefix order, so the float sums below add in the same order whatever
   history built the configuration: score and CD mean from 0.0, and per
   sub-filter the volumes of the victims that have one (a sub-filter no
   victim has a volume on stays absent). *)
let[@hot] merge t ~abits ~alen =
  let lo = bisect t abits 0 t.n in
  let hi = bisect t (abits + (1 lsl (Prefix.address_bits - alen))) lo t.n in
  (* Otherwise a counter on or above [ancestor] already covers it. *)
  if
    lo < hi
    && alen < length_at t lo
    && Prefix.covers_bits ~abits ~alen ~bbits:(bits_at t lo) ~blen:(length_at t lo)
  then begin
    let k = t.k in
    let fl = get t.flags lo in
    bump t.usage (effective t lo) (-1) 0;
    t.scores.(lo) <- 0.0 +. t.scores.(lo);
    t.means.(lo) <- (if fl land seeded_flag <> 0 then 0.0 +. t.means.(lo) else 0.0);
    for i = lo + 1 to hi - 1 do
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
    init_slot t lo
      ~key:(Prefix.key_of ~bits:abits ~length:alen)
      ~flags:(get t.flags lo land lnot fresh_flag);
    shift t ~lo:(lo + 1) ~hi ~len:0;
    seal_total t lo;
    bump t.usage (effective t lo) 1 0
  end


(* Replace the live counter in slot [i] by its two children, in one shift.
   Each child inherits half the parent's score and, when it has one, half
   its CD mean. *)
let[@hot] divide t i =
  let key = get t.keys i in
  let len = Prefix.key_length key in
  if len < Prefix.address_bits then begin
    let lbits = Prefix.key_bits key and child = len + 1 in
    let rbits = lbits lor (1 lsl (Prefix.address_bits - child)) in
    let fl = get t.flags i land seeded_flag in
    let half_score = t.scores.(i) /. 2.0 in
    let half_mean = if fl <> 0 then t.means.(i) /. 2.0 else 0.0 in
    bump t.usage (effective t i) (-1) 0;
    shift t ~lo:(i + 1) ~hi:(i + 1) ~len:1;
    init_slot t i ~key:(Prefix.key_of ~bits:lbits ~length:child) ~flags:(fl lor fresh_flag);
    init_slot t (i + 1) ~key:(Prefix.key_of ~bits:rbits ~length:child) ~flags:(fl lor fresh_flag);
    t.scores.(i) <- half_score;
    t.scores.(i + 1) <- half_score;
    t.means.(i) <- half_mean;
    t.means.(i + 1) <- half_mean;
    bump t.usage (effective t i) 1 0;
    bump t.usage (effective t (i + 1)) 1 0
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
  let i = t.n in
  shift t ~lo:i ~hi:i ~len:1;
  let present_bits =
    List.fold_left
      (fun acc (b, v) ->
        t.vols.((i * t.k) + b) <- v;
        acc lor present b)
      0 c.vols
  in
  let seeded, avg = match Ewma.value c.avg with Some v -> (true, v) | None -> (false, 0.0) in
  init_slot t i ~key:(Prefix.key c.at)
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

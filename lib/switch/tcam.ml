module Prefix = Dream_prefix.Prefix
module Aggregate = Dream_traffic.Aggregate

type stats = { installs : int; removals : int; fetches : int }

(* One owner's installed rules: a sorted column of packed prefix keys
   (Prefix.key), 8 bytes a rule, [n] in use.  An edit at an index is one
   shift of the tail (a memmove: no write barrier, no allocation once the
   column has grown); a keyed edit bisects for the index first. *)
type rules = { mutable keys : Bytes.t; mutable n : int }

(* Owners are ints: hashing them as [Hashtbl.hash] does keeps the
   polymorphic table's buckets, hence its fold order, without its
   polymorphic equality. *)
module Owners = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

type t = {
  capacity : int;
  tables : rules Owners.t; (* owner -> installed rules *)
  none : rules; (* the empty column [find] gives an owner without one *)
  mutable spare : rules list; (* removed owners' columns, the last removed first *)
  mutable used : int;
  mutable installs : int;
  mutable removals : int;
  mutable fetches : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Tcam.create: capacity must be positive";
  {
    capacity;
    tables = Owners.create 64;
    none = { keys = Bytes.empty; n = 0 };
    spare = [];
    used = 0;
    installs = 0;
    removals = 0;
    fetches = 0;
  }

let capacity t = t.capacity

let used t = t.used

let[@inline] get keys i = Int64.to_int (Bytes.get_int64_ne keys (i lsl 3))

let[@inline] set keys i v = Bytes.set_int64_ne keys (i lsl 3) (Int64.of_int v)

let count col = col.n

let key col i = get col.keys i

(* The first index in [lo, hi) whose key is >= [key], or [hi]. *)
let rec bisect keys key lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if get keys mid < key then bisect keys key (mid + 1) hi else bisect keys key lo mid
  end

let rules t ~owner =
  match Owners.find t.tables owner with
  | col -> col
  | exception Not_found ->
    (* A new owner takes the column a removed one left, with the room it
       grew, or a fresh one of 8 rules. *)
    let col =
      match t.spare with
      | col :: rest ->
        t.spare <- rest;
        col
      | [] -> { keys = Bytes.create 64; n = 0 }
    in
    Owners.replace t.tables owner col;
    col

let find t ~owner = match Owners.find t.tables owner with col -> col | exception Not_found -> t.none

let used_by t ~owner = (find t ~owner).n

let rec prefixes_down keys i acc =
  if i < 0 then acc else prefixes_down keys (i - 1) (Prefix.of_key (get keys i) :: acc)

let fold_owners f t acc = Owners.fold f t.tables acc

let dump_owner owner col acc =
  if col.n = 0 then acc else (owner, prefixes_down col.keys (col.n - 1) []) :: acc

let by_owner (a, _) (b, _) = Int.compare a b

let dump t = List.sort by_owner (fold_owners dump_owner t [])

let insert_at t col i key =
  if col == t.none then invalid_arg "Tcam.insert_at: the column of no owner";
  if i < 0 || i > col.n || (i > 0 && get col.keys (i - 1) >= key) || (i < col.n && get col.keys i <= key)
  then invalid_arg "Tcam.insert_at: the key does not belong at the index";
  if t.used >= t.capacity then false
  else begin
    let bytes = col.n lsl 3 in
    if bytes + 8 > Bytes.length col.keys then begin
      let grown = Bytes.create (2 * Bytes.length col.keys) in
      Bytes.blit col.keys 0 grown 0 bytes;
      col.keys <- grown
    end;
    Bytes.blit col.keys (i lsl 3) col.keys ((i + 1) lsl 3) (bytes - (i lsl 3));
    set col.keys i key;
    col.n <- col.n + 1;
    t.used <- t.used + 1;
    t.installs <- t.installs + 1;
    true
  end

let remove_at t col i =
  if i < 0 || i >= col.n then invalid_arg "Tcam.remove_at: no rule at the index";
  Bytes.blit col.keys ((i + 1) lsl 3) col.keys (i lsl 3) ((col.n - i - 1) lsl 3);
  col.n <- col.n - 1;
  t.used <- t.used - 1;
  t.removals <- t.removals + 1

let install t ~owner key =
  let col = rules t ~owner in
  let i = bisect col.keys key 0 col.n in
  if i < col.n && get col.keys i = key then Error `Duplicate
  else if insert_at t col i key then Ok ()
  else Error `Capacity

let remove t ~owner key =
  let col = find t ~owner in
  let i = bisect col.keys key 0 col.n in
  if i < col.n && get col.keys i = key then begin
    remove_at t col i;
    true
  end
  else false

let remove_owner t ~owner =
  match Owners.find t.tables owner with
  | exception Not_found -> 0
  | col ->
    let n = col.n in
    t.used <- t.used - n;
    t.removals <- t.removals + n;
    Owners.remove t.tables owner;
    col.n <- 0;
    t.spare <- (col :: t.spare [@alloc.allow "once per retired owner"]);
    n

let read t col aggregate ~keys ~vols =
  let n = col.n in
  for i = 0 to n - 1 do
    keys.(i) <- get col.keys i
  done;
  t.fetches <- t.fetches + n;
  Aggregate.read_keys aggregate ~keys ~n vols;
  n

let wipe t =
  Owners.reset t.tables;
  t.used <- 0

let stats t = { installs = t.installs; removals = t.removals; fetches = t.fetches }

let installs t = t.installs

let removals t = t.removals

let fetches t = t.fetches

let reset_stats t =
  t.installs <- 0;
  t.removals <- 0;
  t.fetches <- 0

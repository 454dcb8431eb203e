module Prefix = Dream_prefix.Prefix
module Aggregate = Dream_traffic.Aggregate

type stats = { installs : int; removals : int; fetches : int }

type t = {
  capacity : int;
  tables : (int, Prefix.Set.t ref) Hashtbl.t; (* owner -> installed prefixes *)
  mutable used : int;
  mutable installs : int;
  mutable removals : int;
  mutable fetches : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Tcam.create: capacity must be positive";
  { capacity; tables = Hashtbl.create 64; used = 0; installs = 0; removals = 0; fetches = 0 }

let capacity t = t.capacity

let used t = t.used

let free t = t.capacity - t.used

let table t owner =
  match Hashtbl.find_opt t.tables owner with
  | Some set -> set
  | None ->
    let set = ref Prefix.Set.empty in
    Hashtbl.replace t.tables owner set;
    set

let used_by t ~owner =
  match Hashtbl.find_opt t.tables owner with
  | Some set -> Prefix.Set.cardinal !set
  | None -> 0

let owners t =
  Hashtbl.fold (fun owner set acc -> if Prefix.Set.is_empty !set then acc else owner :: acc) t.tables []

let rules_of t ~owner =
  match Hashtbl.find_opt t.tables owner with
  | Some set -> Prefix.Set.elements !set
  | None -> []

let dump t =
  Hashtbl.fold
    (fun owner set acc ->
      if Prefix.Set.is_empty !set then acc else (owner, Prefix.Set.elements !set) :: acc)
    t.tables []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let install t ~owner p =
  let set = table t owner in
  if Prefix.Set.mem p !set then Error `Duplicate
  else if t.used >= t.capacity then Error `Capacity
  else begin
    set := Prefix.Set.add p !set;
    t.used <- t.used + 1;
    t.installs <- t.installs + 1;
    Ok ()
  end

let remove t ~owner p =
  match Hashtbl.find_opt t.tables owner with
  | None -> false
  | Some set ->
    if Prefix.Set.mem p !set then begin
      set := Prefix.Set.remove p !set;
      t.used <- t.used - 1;
      t.removals <- t.removals + 1;
      true
    end
    else false

let remove_owner t ~owner =
  match Hashtbl.find_opt t.tables owner with
  | None -> 0
  | Some set ->
    let n = Prefix.Set.cardinal !set in
    t.used <- t.used - n;
    t.removals <- t.removals + n;
    Hashtbl.remove t.tables owner;
    n

let read t ~owner aggregate =
  let rules = rules_of t ~owner in
  t.fetches <- t.fetches + List.length rules;
  (* Rule sets come out of the Prefix.Set in compare order, which is
     first-address order — exactly the sorted batch the flat store answers
     in one narrowing pass.  Element-wise identical to mapping
     [Aggregate.volume]. *)
  Aggregate.read_prefixes aggregate rules

let wipe t =
  Hashtbl.reset t.tables;
  t.used <- 0

let stats t = { installs = t.installs; removals = t.removals; fetches = t.fetches }

let reset_stats t =
  t.installs <- 0;
  t.removals <- 0;
  t.fetches <- 0

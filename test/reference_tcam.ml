(* The set-based TCAM the switch kept before its rules became packed-key
   columns, kept as the differential oracle for Dream_switch.Tcam: each
   owner's rules are a Prefix.Set, reads map Aggregate.volume over the
   set's elements.  Only the tests use it. *)

module Prefix = Prefix_ops
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
  List.map (fun p -> (p, Aggregate.volume aggregate p)) rules

let wipe t =
  Hashtbl.reset t.tables;
  t.used <- 0

let stats t = { installs = t.installs; removals = t.removals; fetches = t.fetches }

(* The sorted-merge walk rule sync used over the set's element lists:
   folds [f], in list order, over the elements of [xs] not in [ys]; both
   strictly increasing under Prefix.compare. *)
let rec fold_diff f xs ys acc =
  match xs with
  | [] -> acc
  | x :: xs' -> (
    match ys with
    | y :: ys' when Prefix.compare y x < 0 -> fold_diff f xs ys' acc
    | y :: ys' when Prefix.equal y x -> fold_diff f xs' ys' acc
    | _ :: _ | [] -> fold_diff f xs' ys (f x acc))

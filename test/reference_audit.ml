(* The retired list audit of a switch's rules (the data plane's audit),
   kept as the differential oracle for the column reconcile of controller
   fail-over (Dream_core.Failover.reconcile): each owner's rules as a
   sorted key list, diffed against the expected ones by merging the two
   lists.  Only the tests use it. *)

module Prefix = Dream_prefix.Prefix
module Tcam = Dream_switch.Tcam

type result = { strays_removed : int; missing_installed : int }

let sorted_keys rules = List.sort_uniq Int.compare (List.map Prefix.key rules)

(* Pass 1 for one owner: delete its installed keys [want] lacks, one
   merge walk of the two sorted key lists. *)
let rec remove_strays tcam ~owner have want removed =
  match have with
  | [] -> removed
  | k :: have' -> (
    match want with
    | w :: want' when w < k -> remove_strays tcam ~owner have want' removed
    | w :: want' when w = k -> remove_strays tcam ~owner have' want' removed
    | _ :: _ | [] ->
      let removed = if Tcam.remove tcam ~owner k then removed + 1 else removed in
      remove_strays tcam ~owner have' want removed)

(* Pass 2 for one owner: install the keys of [want] missing from its live
   column; [h] walks the column, past each key that lands. *)
let rec install_missing tcam ~owner have h want installed =
  match want with
  | [] -> installed
  | w :: want' ->
    if h < Tcam.count have && Tcam.key have h < w then
      install_missing tcam ~owner have (h + 1) want installed
    else if h < Tcam.count have && Tcam.key have h = w then
      install_missing tcam ~owner have (h + 1) want' installed
    else begin
      match Tcam.install tcam ~owner w with
      | Ok () -> install_missing tcam ~owner have (h + 1) want' (installed + 1)
      | Error (`Capacity | `Duplicate) -> install_missing tcam ~owner have h want' installed
    end

(* Reconcile the table against [expected] (owner -> prefixes, owners with
   none left out): strays are deleted first, so the table never
   transiently exceeds capacity, then missing rules installed, owner by
   owner in [expected] order. *)
let audit tcam ~expected =
  let expected = List.map (fun (owner, rules) -> (owner, sorted_keys rules)) expected in
  let want_of owner = match List.assoc_opt owner expected with Some keys -> keys | None -> [] in
  let removed =
    List.fold_left
      (fun removed (owner, rules) ->
        remove_strays tcam ~owner (List.map Prefix.key rules) (want_of owner) removed)
      0 (Tcam.dump tcam)
  in
  let installed =
    List.fold_left
      (fun installed (owner, want) ->
        install_missing tcam ~owner (Tcam.rules tcam ~owner) 0 want installed)
      0 expected
  in
  { strays_removed = removed; missing_installed = installed }

(* The retired Tcam.sync/Tcam.delta path, kept as the differential oracle
   for the two-cursor key-column merge the controller syncs rules with
   (Dream_core.Rule_sync): build a Prefix.Set of each side and take
   Prefix.Set.diff.  Only the tests use it. *)

module Prefix = Dream_prefix.Prefix
module Tcam = Dream_switch.Tcam

type delta = { added : int; removed : int }

(* Rules to delete and rules to install, each in Prefix.Set order. *)
let plan ~installed ~desired =
  let have = Prefix.Set.of_list installed and want = Prefix.Set.of_list desired in
  (Prefix.Set.elements (Prefix.Set.diff have want), Prefix.Set.elements (Prefix.Set.diff want have))

(* Make the owner's installed set equal [prefixes]: removals first, then
   installs, unchanged rules untouched.  Refuses up front, leaving the
   table as it was, a set that would not fit. *)
let sync t ~owner ~prefixes =
  let to_remove, to_add = plan ~installed:(Fixtures.tcam_rules t ~owner) ~desired:prefixes in
  let removed = List.length to_remove and added = List.length to_add in
  if Tcam.used t - removed + added > Tcam.capacity t then
    invalid_arg
      (Printf.sprintf
         "Reference_sync.sync: owner %d would exceed capacity (%d used, -%d +%d, cap %d)" owner
         (Tcam.used t) removed added (Tcam.capacity t));
  List.iter (fun p -> ignore (Tcam.remove t ~owner (Prefix.key p))) to_remove;
  List.iter (fun p -> ignore (Tcam.install t ~owner (Prefix.key p))) to_add;
  { added; removed }

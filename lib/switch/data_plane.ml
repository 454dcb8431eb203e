module Prefix = Dream_prefix.Prefix
module Fault_model = Dream_fault.Fault_model

type fetch_error = [ `Down | `Timeout | `Unreachable ]

type install_error = [ `Capacity | `Duplicate | `Down | `Failed | `Unreachable ]

type t = { switch : Switch.t; faults : Fault_model.t option }

let create ?faults switch = { switch; faults }

let switch t = t.switch

let id t = Switch.id t.switch

let tcam t = Switch.tcam t.switch

let faults t = t.faults

let down t =
  match t.faults with None -> false | Some fm -> Fault_model.is_down fm (id t)

let partitioned t =
  match t.faults with None -> false | Some fm -> Fault_model.is_partitioned fm (id t)

let latency_factor t =
  match t.faults with None -> 1.0 | Some fm -> Fault_model.latency_factor fm (id t)

let read t ~owner aggregate ~keys ~vols =
  if down t then Error `Down
    (* A partition is not a timeout: nothing is routed, so the fetch is
       never issued, never priced, and consumes no data-stream draws.  The
       TCAM keeps counting underneath. *)
  else if partitioned t then Error `Unreachable
  else begin
    (* The fetch is issued (and priced through the TCAM stats) before the
       timeout verdict: a timed-out batch costs the control loop the same
       wire time as a successful one. *)
    let n = Tcam.read (tcam t) ~owner aggregate ~keys ~vols in
    match t.faults with
    | None -> Ok n
    | Some fm ->
      if Fault_model.fetch_times_out fm (id t) then Error `Timeout
      else begin
        (* Survivors close up in place, in key order: one loss draw per
           counter, then one perturbation draw per survivor. *)
        let kept = ref 0 in
        for i = 0 to n - 1 do
          if not (Fault_model.lose_counter fm (id t)) then begin
            keys.(!kept) <- keys.(i);
            vols.(!kept) <- Fault_model.perturb fm (id t) vols.(i);
            incr kept
          end
        done;
        Ok !kept
      end
  end

let install t ~owner key =
  if down t then Error `Down
  else if partitioned t then Error `Unreachable
  else begin
    match t.faults with
    | Some fm when Fault_model.install_fails fm (id t) -> Error `Failed
    | Some _ | None -> (Tcam.install (tcam t) ~owner key :> (unit, install_error) result)
  end

let remove t ~owner key =
  if down t then Error `Down
  else if partitioned t then Error `Unreachable
  else if Tcam.remove (tcam t) ~owner key then (Ok true [@alloc.allow "a static constant"])
  else (Ok false [@alloc.allow "a static constant"])

let crash t =
  Tcam.wipe (tcam t)

type audit_result = { strays_removed : int; missing_installed : int }

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

let audit t ~expected =
  if down t then Error `Down
  else if partitioned t then Error `Unreachable
  else begin
    let tcam = tcam t in
    let expected = List.map (fun (owner, rules) -> (owner, sorted_keys rules)) expected in
    let want_of owner = match List.assoc_opt owner expected with Some keys -> keys | None -> [] in
    (* Pass 1: delete strays first so reinstalls can never transiently
       overflow the table (the expected state fit before the crash). *)
    let removed =
      List.fold_left
        (fun removed (owner, rules) ->
          remove_strays tcam ~owner (List.map Prefix.key rules) (want_of owner) removed)
        0 (Tcam.dump tcam)
    in
    (* Pass 2: reinstall missing rules.  Recovery runs over the reliable
       control channel (retried until acked), so installs bypass the
       fault model's per-message install failures. *)
    let installed =
      List.fold_left
        (fun installed (owner, want) ->
          install_missing tcam ~owner (Tcam.rules tcam ~owner) 0 want installed)
        0 expected
    in
    Ok { strays_removed = removed; missing_installed = installed }
  end

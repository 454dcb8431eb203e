module Controller = Dream_core.Controller
module Breaker = Dream_switch.Breaker
module Invariant = Dream_recovery.Invariant
module Journal = Dream_recovery.Journal

type violation = { epoch : int; code : string; detail : string }

let to_string v = Printf.sprintf "epoch %d: %s — %s" v.epoch v.code v.detail

let invariants ~epoch controller =
  List.map
    (fun (v : Invariant.violation) ->
      { epoch; code = "invariant:" ^ v.Invariant.code; detail = v.Invariant.detail })
    (Controller.check_invariants_now controller)

let breaker_transitions ~epoch ~prev ~now =
  if Array.length prev <> Array.length now then
    [
      {
        epoch;
        code = "breaker-population";
        detail =
          Printf.sprintf "breaker count changed %d -> %d" (Array.length prev) (Array.length now);
      };
    ]
  else begin
    let out = ref [] in
    Array.iteri
      (fun sw from ->
        let into = now.(sw) in
        if not (Breaker.legal_transition ~from ~into) then
          out :=
            {
              epoch;
              code = "breaker-transition";
              detail =
                Printf.sprintf "switch %d: %s -> %s is unreachable in the state machine" sw
                  (Breaker.state_to_string from) (Breaker.state_to_string into);
            }
            :: !out)
      prev;
    List.rev !out
  end

(* Bounded staleness: above the shed cap, a task's stale streak may only
   grow while one of its switches is not [Controller.reachable] or a
   scripted noise window is open.
   Growth beyond the cap in calm conditions means the deadline scheduler
   shed a task it had promised not to.  [prev] carries last epoch's levels
   across calls and is updated in place. *)
let seed_staleness ~controller ~prev =
  Hashtbl.reset prev;
  List.iter
    (fun task_id ->
      match Controller.staleness_of controller ~task_id with
      | Some level -> Hashtbl.replace prev task_id level
      | None -> ())
    (Controller.active_task_ids controller)

let staleness ~epoch ~cap ~noise_active ~controller ~prev =
  let adverse task_id =
    noise_active
    ||
    match Controller.task_switches controller ~task_id with
    | Some switches -> not (List.for_all (Controller.reachable controller) switches)
    | None -> false
  in
  let out = ref [] in
  let ids = Controller.active_task_ids controller in
  List.iter
    (fun task_id ->
      match Controller.staleness_of controller ~task_id with
      | None -> ()
      | Some level ->
        let before = Option.value ~default:0 (Hashtbl.find_opt prev task_id) in
        if level > cap && level > before && not (adverse task_id) then
          out :=
            {
              epoch;
              code = "staleness-cap";
              detail =
                Printf.sprintf
                  "task %d staleness grew %d -> %d past cap %d with all switches healthy" task_id
                  before level cap;
            }
            :: !out)
    ids;
  seed_staleness ~controller ~prev;
  List.rev !out

let checkpoint_roundtrip ~epoch controller =
  let s1 = Controller.snapshot controller in
  match Controller.restore s1 with
  | Error msg -> [ { epoch; code = "checkpoint-restore"; detail = msg } ]
  | Ok restored ->
    let s2 = Controller.snapshot restored in
    if String.equal s1 s2 then []
    else
      [
        {
          epoch;
          code = "checkpoint-identity";
          detail =
            Printf.sprintf "re-snapshot of restored controller differs (%d vs %d bytes)"
              (String.length s1) (String.length s2);
        };
      ]

let torn_tail ~epoch ~drop entries =
  let full = String.concat "" (List.map Journal.entry_to_string entries) in
  let keep = max 0 (String.length full - drop) in
  let cut = String.sub full 0 keep in
  match Journal.entries_of_string cut with
  | Error msg -> [ { epoch; code = "torn-tail-parse"; detail = msg } ]
  | Ok parsed ->
    let rec prefix = function
      | [], _ -> true
      | _ :: _, [] -> false
      | p :: ps, e :: es ->
        String.equal (Journal.entry_to_string p) (Journal.entry_to_string e) && prefix (ps, es)
    in
    if prefix (parsed, entries) then []
    else
      [
        {
          epoch;
          code = "torn-tail-prefix";
          detail =
            Printf.sprintf
              "parsed %d entries from a %d-byte cut that are not a prefix of the %d written"
              (List.length parsed) drop (List.length entries);
        };
      ]

module Fault_model = Dream_fault.Fault_model

type install_error = [ `Capacity | `Down | `Failed | `Unreachable ]

type t = { id : Dream_traffic.Switch_id.t; tcam : Tcam.t; faults : Fault_model.t option }

let create ?faults ~id ~capacity () = { id; tcam = Tcam.create ~capacity; faults }

let id t = t.id

let tcam t = t.tcam

let capacity t = Tcam.capacity t.tcam

let network ?faults ~num_switches ~capacity () =
  if num_switches <= 0 then
    invalid_arg (Printf.sprintf "Switch.network: num_switches must be positive, got %d" num_switches);
  if capacity <= 0 then
    invalid_arg (Printf.sprintf "Switch.network: capacity must be positive, got %d" capacity);
  Array.init num_switches (fun id -> create ?faults ~id ~capacity ())

let down t =
  match t.faults with None -> false | Some fm -> Fault_model.is_down fm t.id

let partitioned t =
  match t.faults with None -> false | Some fm -> Fault_model.is_partitioned fm t.id

let latency_factor t =
  match t.faults with None -> 1.0 | Some fm -> Fault_model.latency_factor fm t.id

let read_down = -1

let read_unreachable = -2

let read_timeout = -3

let read t rules aggregate ~keys ~vols =
  if down t then read_down
    (* A partition is not a timeout: nothing is routed, so the fetch is
       never issued, never priced, and consumes no data-stream draws.  The
       TCAM keeps counting underneath. *)
  else if partitioned t then read_unreachable
  else begin
    (* The fetch is issued (and priced through the TCAM stats) before the
       timeout verdict: a timed-out batch costs the control loop the same
       wire time as a successful one. *)
    let n = Tcam.read t.tcam rules aggregate ~keys ~vols in
    match t.faults with
    | None -> n
    | Some fm ->
      if Fault_model.fetch_times_out fm t.id then read_timeout
      else Fault_model.degrade fm t.id ~keys ~vols n
  end

(* The checks every update makes before the TCAM: the switch is down or
   its channel partitioned. *)
let channel t =
  if down t then (Error `Down [@alloc.allow "a static constant"])
  else if partitioned t then (Error `Unreachable [@alloc.allow "a static constant"])
  else (Ok () [@alloc.allow "a static constant"])

(* An install then draws from the fault model, which may fail it. *)
let install_at t rules i key =
  match channel t with
  | Error _ as e -> (e :> (unit, install_error) result)
  | Ok () as ok -> (
    match t.faults with
    | Some fm when Fault_model.install_fails fm t.id ->
      (Error `Failed [@alloc.allow "a static constant"])
    | Some _ | None ->
      if Tcam.insert_at t.tcam rules i key then ok
      else (Error `Capacity [@alloc.allow "a static constant"]))

let remove_at t rules i =
  match channel t with
  | Ok () as ok ->
    Tcam.remove_at t.tcam rules i;
    ok
  | Error _ as e -> e

let crash t = Tcam.wipe t.tcam

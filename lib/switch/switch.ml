module Fault_model = Dream_fault.Fault_model

type install_error = [ `Capacity | `Duplicate | `Down | `Failed | `Unreachable ]

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

let read t ~owner aggregate ~keys ~vols =
  if down t then read_down
    (* A partition is not a timeout: nothing is routed, so the fetch is
       never issued, never priced, and consumes no data-stream draws.  The
       TCAM keeps counting underneath. *)
  else if partitioned t then read_unreachable
  else begin
    (* The fetch is issued (and priced through the TCAM stats) before the
       timeout verdict: a timed-out batch costs the control loop the same
       wire time as a successful one. *)
    let n = Tcam.read t.tcam ~owner aggregate ~keys ~vols in
    match t.faults with
    | None -> n
    | Some fm ->
      if Fault_model.fetch_times_out fm t.id then read_timeout
      else Fault_model.degrade fm t.id ~keys ~vols n
  end

let install t ~owner key =
  if down t then (Error `Down [@alloc.allow "a static constant"])
  else if partitioned t then (Error `Unreachable [@alloc.allow "a static constant"])
  else begin
    match t.faults with
    | Some fm when Fault_model.install_fails fm t.id ->
      (Error `Failed [@alloc.allow "a static constant"])
    | Some _ | None -> (Tcam.install t.tcam ~owner key :> (unit, install_error) result)
  end

let remove t ~owner key =
  if down t then (Error `Down [@alloc.allow "a static constant"])
  else if partitioned t then (Error `Unreachable [@alloc.allow "a static constant"])
  else if Tcam.remove t.tcam ~owner key then (Ok true [@alloc.allow "a static constant"])
  else (Ok false [@alloc.allow "a static constant"])

let crash t = Tcam.wipe t.tcam

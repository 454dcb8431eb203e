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

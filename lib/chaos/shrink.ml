(* Schedule minimization, delta-debugging style.  Two phases:

   1. ddmin over the event list — drop ever-smaller chunks while the
      schedule still fails, converging to a 1-minimal event subset;
   2. event-level shrinking — replace single events with strictly smaller
      variants (shorter windows, lower rates) while failure persists.

   The failure predicate re-runs the harness, so every accepted reduction
   is a real, replayable failing schedule.  A run budget bounds the total
   work; once exhausted, candidates are treated as passing and the current
   (still failing) schedule is kept. *)

type stats = { runs : int; initial_events : int; final_events : int }

let split_chunks n l =
  let len = List.length l in
  let base = len / n and extra = len mod n in
  let rec take k l acc = if k = 0 then (List.rev acc, l) else begin
      match l with [] -> (List.rev acc, []) | x :: xs -> take (k - 1) xs (x :: acc)
    end
  in
  let rec go i l acc =
    if i >= n then List.rev acc
    else begin
      let size = base + if i < extra then 1 else 0 in
      let chunk, rest = take size l [] in
      go (i + 1) rest (chunk :: acc)
    end
  in
  go 0 l []

(* The budget of [fails] evaluations per minimization. *)
let max_runs = 2000

let minimize ~fails (sched : Schedule.t) =
  let runs = ref 0 in
  let check s =
    if !runs >= max_runs then false
    else begin
      incr runs;
      fails s
    end
  in
  let with_events evs = { sched with Schedule.events = evs } in
  (* Phase 1: ddmin.  Remove one of [n] chunks; on success restart with
     coarser granularity, otherwise refine until chunks are single events. *)
  let rec ddmin events n =
    let len = List.length events in
    if len <= 1 then events
    else begin
      let n = min n len in
      let chunks = split_chunks n events in
      let rec try_remove i =
        if i >= List.length chunks then None
        else begin
          let remaining = List.concat (List.filteri (fun j _ -> j <> i) chunks) in
          if List.length remaining < len && check (with_events remaining) then Some remaining
          else try_remove (i + 1)
        end
      in
      match try_remove 0 with
      | Some remaining -> ddmin remaining (max 2 (n - 1))
      | None -> if n < len then ddmin events (min len (2 * n)) else events
    end
  in
  let events = ddmin sched.Schedule.events 2 in
  (* Phase 2: per-event shrinking to a fixpoint.  Every accepted variant
     strictly reduces an integer measure (or zeroes a rate), so the loop
     terminates even without the run budget. *)
  let arr = ref (Array.of_list events) in
  let improved = ref true in
  while !improved do
    improved := false;
    Array.iteri
      (fun i e ->
        let rec try_variants = function
          | [] -> ()
          | v :: rest ->
            let candidate = Array.copy !arr in
            candidate.(i) <- v;
            if check (with_events (Array.to_list candidate)) then begin
              arr := candidate;
              improved := true
            end
            else try_variants rest
        in
        try_variants (Schedule.shrink_event e))
      !arr
  done;
  let final = with_events (Array.to_list !arr) in
  ( final,
    {
      runs = !runs;
      initial_events = List.length sched.Schedule.events;
      final_events = List.length final.Schedule.events;
    } )

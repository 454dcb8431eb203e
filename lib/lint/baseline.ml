module Json = Dream_obs.Json
module Bench = Dream_obs.Bench_snapshot

type entry = { b_rule : string; b_file : string; b_count : int; b_reason : string option }

type t = entry list

let version = 1

let compare_key (r1, f1) (r2, f2) =
  match String.compare r1 r2 with 0 -> String.compare f1 f2 | c -> c

let compare_entry a b = compare_key (a.b_rule, a.b_file) (b.b_rule, b.b_file)

let normalize t = List.sort compare_entry t

let of_findings findings =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (f : Finding.t) ->
      let k = (f.Finding.rule, f.Finding.file) in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    findings;
  Hashtbl.fold
    (fun (rule, file) count acc ->
      { b_rule = rule; b_file = file; b_count = count; b_reason = None } :: acc)
    tbl []
  |> normalize

type delta = { d_rule : string; d_file : string; d_baseline : int; d_current : int }

type diff = { fresh : delta list; improved : delta list }

let count_of t (rule, file) =
  match List.find_opt (fun e -> e.b_rule = rule && e.b_file = file) t with
  | Some e -> e.b_count
  | None -> 0

let diff ~baseline ~current =
  let keys =
    List.map (fun e -> (e.b_rule, e.b_file)) (baseline @ current)
    |> List.sort_uniq compare_key
  in
  let deltas =
    List.map
      (fun (rule, file) ->
        {
          d_rule = rule;
          d_file = file;
          d_baseline = count_of baseline (rule, file);
          d_current = count_of current (rule, file);
        })
      keys
  in
  {
    fresh = List.filter (fun d -> d.d_current > d.d_baseline) deltas;
    improved = List.filter (fun d -> d.d_current < d.d_baseline) deltas;
  }

let update ~old_ ~current =
  match old_ with
  | None -> Ok (normalize current)
  | Some old_ -> (
    let d = diff ~baseline:old_ ~current in
    match d.fresh with
    | [] ->
      Ok
        (List.map
           (fun e ->
             let reason =
               match
                 List.find_opt
                   (fun o -> o.b_rule = e.b_rule && o.b_file = e.b_file)
                   old_
               with
               | Some o -> o.b_reason
               | None -> e.b_reason
             in
             { e with b_reason = reason })
           (normalize current))
    | grown ->
      Error
        (Printf.sprintf
           "baseline can only shrink; fix or [@alloc.allow] the new findings in: %s"
           (String.concat ", "
              (List.map
                 (fun g ->
                   Printf.sprintf "%s %s (%d -> %d)" g.d_rule g.d_file g.d_baseline
                     g.d_current)
                 grown))))

let debt_snapshot findings =
  let by_rule = Hashtbl.create 16 in
  List.iter
    (fun (f : Finding.t) ->
      Hashtbl.replace by_rule f.Finding.rule
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_rule f.Finding.rule)))
    findings;
  let rules =
    Hashtbl.fold (fun r c acc -> (r, c) :: acc) by_rule []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let metrics =
    List.map
      (fun (rule, count) ->
        Bench.metric ~unit_:"count" ~direction:Bench.Lower_better ("debt_" ^ rule)
          (float_of_int count))
      rules
    @ [
        Bench.metric ~unit_:"count" ~direction:Bench.Lower_better "debt_total"
          (float_of_int (List.length findings));
      ]
  in
  Bench.make ~figure:"lint-debt" ~quick:false ~metrics ()

let json =
  let open Dream_util.Codec in
  let count =
    conv
      (fun n -> if n > 0 then n else refuse (Printf.sprintf "count %d is not positive" n))
      Fun.id (int "count")
  in
  let entry =
    record
      (let+ b_rule = field (string "rule") (fun e -> e.b_rule)
       and+ b_file = field (string "file") (fun e -> e.b_file)
       and+ b_count = field count (fun e -> e.b_count)
       and+ b_reason = field (option "reason" (string "reason")) (fun e -> e.b_reason) in
       { b_rule; b_file; b_count; b_reason })
  in
  record
    (let+ () = field (constant (int "version") version) ignore
     and+ entries = field (repeat "entries" entry) normalize in
     let entries = normalize entries in
     let keys = List.map (fun e -> (e.b_rule, e.b_file)) entries in
     if List.length keys <> List.length (List.sort_uniq compare_key keys) then
       refuse "duplicate (rule, file) entry";
     entries)

let to_string t = Json.to_string (Json.encode json t)

let of_string s = Result.bind (Json.of_string s) (Json.decode json)

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> (
    match of_string s with Ok t -> Ok t | Error e -> Error (path ^ ": " ^ e))
  | exception Sys_error msg -> Error ("cannot read baseline: " ^ msg)

let write t ~path =
  match
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (to_string t);
        Out_channel.output_char oc '\n')
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error ("cannot write baseline: " ^ msg)

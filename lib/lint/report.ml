module Json = Dream_obs.Json

let version = 2

let count_severity findings =
  List.fold_left
    (fun (errors, warnings) (f : Finding.t) ->
      match f.Finding.severity with
      | Finding.Error -> (errors + 1, warnings)
      | Finding.Warning -> (errors, warnings + 1))
    (0, 0) findings

let by_rule findings =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (f : Finding.t) ->
      Hashtbl.replace tbl f.Finding.rule
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f.Finding.rule)))
    findings;
  Hashtbl.fold (fun r c acc -> (r, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let text ?baseline ppf findings =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) findings;
  (match findings with
  | [] -> Format.fprintf ppf "no findings@."
  | _ ->
    let errors, warnings = count_severity findings in
    Format.fprintf ppf "%d finding%s (%d error%s, %d warning%s)@." (List.length findings)
      (if List.length findings = 1 then "" else "s")
      errors
      (if errors = 1 then "" else "s")
      warnings
      (if warnings = 1 then "" else "s");
    List.iter (fun (rule, n) -> Format.fprintf ppf "  %s: %d@." rule n) (by_rule findings));
  match baseline with
  | None -> ()
  | Some (baselined, fresh) ->
    Format.fprintf ppf "baseline: %d finding%s baselined, %d new@." baselined
      (if baselined = 1 then "" else "s")
      fresh

(* The summary counts are only ever written, so the report is built by
   hand around its findings. *)
let to_json ?baseline fs =
  let errors, warnings = count_severity fs in
  let summary =
    [
      ("version", Json.Int version);
      ("count", Json.Int (List.length fs));
      ("errors", Json.Int errors);
      ("warnings", Json.Int warnings);
      ("by_rule", Json.Obj (List.map (fun (r, n) -> (r, Json.Int n)) (by_rule fs)));
    ]
    @
    match baseline with
    | None -> []
    | Some (baselined, fresh) -> [ ("baselined", Json.Int baselined); ("new", Json.Int fresh) ]
  in
  let findings = Dream_util.Codec.repeat "findings" Finding.json in
  Json.Obj (summary @ [ ("findings", Json.encode findings fs) ])

let json ?baseline ppf findings =
  Format.fprintf ppf "%s@." (Json.to_string (to_json ?baseline findings))

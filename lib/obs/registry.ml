type labels = (string * string) list

let canon labels = List.sort compare labels

module Counter = struct
  type t = { mutable n : int }

  let make () = { n = 0 }
  let incr c = c.n <- c.n + 1
  let add c k = c.n <- c.n + k
  let set c k = c.n <- k
  let value c = c.n
end

module Gauge = struct
  type t = { mutable v : float }

  let make () = { v = 0.0 }
  let set g v = g.v <- v
end

module Histogram = struct
  let gamma = 1.25

  let log_gamma = Float.log gamma

  type t = {
    mutable count : int;
    mutable sum : float;
    mutable underflow : int; (* observations <= 0 *)
    tbl : (int, int ref) Hashtbl.t; (* bucket index -> count *)
  }

  let make () =
    { count = 0; sum = 0.0; underflow = 0; tbl = Hashtbl.create 16 }

  (* Bucket [i] covers (gamma^(i-1), gamma^i]. *)
  let bucket_of v = int_of_float (Float.ceil (Float.log v /. log_gamma))

  let observe h v =
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    if v <= 0.0 then h.underflow <- h.underflow + 1
    else begin
      let i = bucket_of v in
      match Hashtbl.find_opt h.tbl i with
      | Some r -> Stdlib.incr r
      | None -> Hashtbl.replace h.tbl i (ref 1)
    end

  let sorted_buckets h =
    Hashtbl.fold (fun i r acc -> (i, !r) :: acc) h.tbl [] |> List.sort compare

  let buckets h =
    let pos = List.map (fun (i, n) -> (gamma ** float_of_int i, n)) (sorted_buckets h) in
    if h.underflow > 0 then (0.0, h.underflow) :: pos else pos
end

type value = Counter_v of int | Gauge_v of float | Histogram_v of Histogram.t

type instrument = C of Counter.t | G of Gauge.t | H of Histogram.t

type t = {
  tbl : (string * labels, instrument) Hashtbl.t;
  help : (string, string) Hashtbl.t;  (** per metric name; first registration wins *)
}

let create () = { tbl = Hashtbl.create 64; help = Hashtbl.create 16 }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let find_or_create t name labels ?help ~want ~make ~cast () =
  (match help with
  | Some text when not (Hashtbl.mem t.help name) -> Hashtbl.replace t.help name text
  | Some _ | None -> ());
  let key = (name, canon labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some i -> (
    match cast i with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Registry: %s is a %s, requested as a %s" name (kind_name i) want))
  | None ->
    let v = make () in
    Hashtbl.replace t.tbl key v;
    (match cast v with Some x -> x | None -> assert false)

let counter t ?(labels = []) ?help name =
  find_or_create t name labels ?help ~want:"counter"
    ~make:(fun () -> C (Counter.make ()))
    ~cast:(function C c -> Some c | G _ | H _ -> None)
    ()

let gauge t ?(labels = []) ?help name =
  find_or_create t name labels ?help ~want:"gauge"
    ~make:(fun () -> G (Gauge.make ()))
    ~cast:(function G g -> Some g | C _ | H _ -> None)
    ()

let histogram t ?(labels = []) ?help name =
  find_or_create t name labels ?help ~want:"histogram"
    ~make:(fun () -> H (Histogram.make ()))
    ~cast:(function H h -> Some h | C _ | G _ -> None)
    ()

type sample = { name : string; labels : labels; value : value }

let samples t =
  Hashtbl.fold
    (fun (name, labels) i acc ->
      let value =
        match i with
        | C c -> Counter_v (Counter.value c)
        | G g -> Gauge_v g.Gauge.v
        | H h -> Histogram_v h
      in
      { name; labels; value } :: acc)
    t.tbl []
  |> List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels))

(* ---- Prometheus text exposition ---- *)

let prom_name name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
      | _ -> Bytes.set b i '_')
    b;
  "dream_" ^ Bytes.to_string b

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else begin
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f
  end

(* Label names must match [a-zA-Z_][a-zA-Z0-9_]*; anything else is mapped
   to '_' (and a leading digit gets a '_' prefix) so an awkward label key
   can never produce an unscrapable exposition. *)
let prom_label_name k =
  let b = Bytes.of_string k in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> ()
      | '0' .. '9' -> if i = 0 then Bytes.set b i '_'
      | _ -> Bytes.set b i '_')
    b;
  if Bytes.length b = 0 then "_" else Bytes.to_string b

(* Label-value escaping per the text exposition format: backslash, double
   quote and newline. *)
let prom_label_value v =
  String.concat ""
    (List.map
       (function '\\' -> "\\\\" | '"' -> "\\\"" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length v) (String.get v)))

(* HELP text escaping: only backslash and newline (quotes are legal). *)
let prom_help_text h =
  String.concat ""
    (List.map
       (function '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length h) (String.get h)))

let prom_labels ?extra labels =
  let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  match labels with
  | [] -> ""
  | kvs ->
    let one (k, v) = Printf.sprintf "%s=\"%s\"" (prom_label_name k) (prom_label_value v) in
    "{" ^ String.concat "," (List.map one kvs) ^ "}"

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let base = prom_name s.name in
      let kind, base =
        match s.value with
        | Counter_v _ -> ("counter", base ^ "_total")
        | Gauge_v _ -> ("gauge", base)
        | Histogram_v _ -> ("histogram", base)
      in
      if not (Hashtbl.mem typed base) then begin
        Hashtbl.replace typed base ();
        (match Hashtbl.find_opt t.help s.name with
        | Some text ->
          Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" base (prom_help_text text))
        | None -> ());
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base kind)
      end;
      match s.value with
      | Counter_v n ->
        Buffer.add_string buf (Printf.sprintf "%s%s %d\n" base (prom_labels s.labels) n)
      | Gauge_v v ->
        Buffer.add_string buf (Printf.sprintf "%s%s %s\n" base (prom_labels s.labels) (prom_float v))
      | Histogram_v h ->
        let cum = ref 0 in
        List.iter
          (fun (le, n) ->
            cum := !cum + n;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" base
                 (prom_labels ~extra:("le", prom_float le) s.labels)
                 !cum))
          (Histogram.buckets h);
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket%s %d\n" base
             (prom_labels ~extra:("le", "+Inf") s.labels)
             h.Histogram.count);
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" base (prom_labels s.labels)
             (prom_float h.Histogram.sum));
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d\n" base (prom_labels s.labels) h.Histogram.count))
    (samples t);
  Buffer.contents buf

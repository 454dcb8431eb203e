type t = {
  id : int;
  topology : Dream_traffic.Topology.t;
  switches : Dream_traffic.Switch_mask.t;
}

type table = {
  num_switches : int;
  mutable rows : int;
  mutable ids : int array;
  mutable bounds : float array;
  mutable overall : float array;
  mutable used : int array;
}

let table ~num_switches =
  {
    num_switches;
    rows = 0;
    ids = [||];
    bounds = [||];
    overall = [||];
    used = [||];
  }

let reserve v rows =
  if Array.length v.ids < rows then begin
    let len = max rows (2 * Array.length v.ids) in
    v.ids <- Array.make len 0;
    v.bounds <- Array.make len 0.0;
    v.overall <- Array.make (len * v.num_switches) 0.0;
    v.used <- Array.make (len * v.num_switches) 0
  end

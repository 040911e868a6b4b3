type 'v write = { wnode : int; windex : int; warg : 'v }

type 'v entry =
  | Write of 'v write
  | Combine of {
      cnode : int;
      cindex : int;
      cvalue : 'v;
      crecent : (int * int) list;
    }

let is_write = function Write _ -> true | Combine _ -> false

let wlog entries =
  List.filter_map (function Write w -> Some w | Combine _ -> None) entries

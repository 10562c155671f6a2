type t = { client : int; rid : int; op : string }

let encode r = Printf.sprintf "REQ|%d|%d|%s" r.client r.rid r.op

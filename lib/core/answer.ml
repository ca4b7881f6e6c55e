let to_string = Prim.to_string
let display = Prim.display
let write = Prim.write

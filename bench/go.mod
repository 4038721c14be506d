module boundedg/bench

go 1.24

require boundedg v0.0.0

replace boundedg => ../

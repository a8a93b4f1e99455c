module acep/benchmark

go 1.24

require acep v0.0.0

replace acep => ../

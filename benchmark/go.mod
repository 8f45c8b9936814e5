module purity/benchmark

go 1.24

require purity v0.0.0

replace purity => ../

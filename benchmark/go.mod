module vamana/benchmark

go 1.23

require vamana v0.0.0

replace vamana => ../

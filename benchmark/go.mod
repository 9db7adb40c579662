module nbtrie/benchmark

go 1.24

require nbtrie v0.0.0

replace nbtrie => ../

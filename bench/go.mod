module streamloader/bench

go 1.24

require streamloader v0.0.0

replace streamloader => ../

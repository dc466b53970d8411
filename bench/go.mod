module graphsys/bench

go 1.22

require graphsys v0.0.0

replace graphsys => ../
